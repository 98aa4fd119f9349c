open! Import

(** The TEESec checker.

    Analyses a simulation log against the two security principles:

    - {b P1} (data): no enclave data may be fetched into or remain in any
      microarchitectural structure while the CPU is not in trusted
      enclave execution mode.  The checker searches every log record for
      verbatim (or registered derived) secrets observed by a context that
      is not authorised for the secret's owner, distinguishing data being
      {e fetched} ([Write] events) from data {e remaining} across a
      boundary ([Snapshot] residue).
    - {b P2} (metadata): microarchitectural state influenced by enclave
      execution must not affect or be observable by non-enclave code.
      The checker detects performance-counter deltas that survive the
      boundary and are read by the host (M1), and enclave-owned branch
      predictor entries visible during host execution (M2).

    Each violation is classified into the paper's leakage cases D1–D8 /
    M1–M2 using the structure it appeared in, its access-path provenance
    ([origin]), the owner of the secret and the observing context.
    Violations that do not correspond to an exploitable case in the
    paper's taxonomy (e.g. cache-line residue, physical-register residue)
    are reported with [case = None] as supplementary residue warnings. *)

type detection = Fetched | Residue

val detection_to_string : detection -> string

type finding = {
  case : Case.id option;
  secret : Secret.seeded option;  (** [None] for metadata findings. *)
  structure : Structure.t;
  cycle : int;
  ctx : Exec_context.t;
  origin : Log.origin option;
  detection : detection;
  note : string;
  last_pc : Word.t option;  (** PC of the last committed instruction. *)
}

val pp_finding : Format.formatter -> finding -> unit

(** [check log tracker] returns the deduplicated findings: classified
    data findings, then the metadata findings (M1, M2), then residue
    warnings.  Its output is exactly that of {!check_reference}.

    One cursor pass matches entry data in place against the seeded
    values and records each matching entry as integers, chained per
    value, newest first; commits are kept as (cycle, pc).  The
    reference's list runs over the secrets newest-registered first and
    over each secret's observations newest first, and deduplication
    keeps the first finding of each (case, structure, detection, value)
    key.  Emission walks the secrets and their values' chains in that
    same order, so a candidate survives exactly when its key is new,
    and only a survivor gets a note string, a last committed pc and a
    finding record.  The scratch buffers are per domain and reused
    across calls. *)
val check : Log.t -> Secret.tracker -> finding list

(** [check_reference log tracker] is the naive O(secrets × records)
    implementation of [check], kept as the oracle for differential
    tests.  [check] must agree with it on every log. *)
val check_reference : Log.t -> Secret.tracker -> finding list

(** [distinct_cases findings] is the sorted list of classified cases. *)
val distinct_cases : finding list -> Case.id list

(** [residue_warnings findings] counts the unclassified findings. *)
val residue_warnings : finding list -> int
