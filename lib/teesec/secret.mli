open Import

(** Traceable secrets.

    Following the paper's Fill_Enc_Mem design, every secret seeded into
    protected memory is computed as a hash of the address it is stored
    at, so that any value the checker finds in the simulation log can be
    traced back to the exact memory location it leaked from.  A tracker
    records each seeded secret together with the security domain that
    owns it, which is what lets the checker decide whether an observing
    context was authorised (and classify cross-boundary cases D4–D7). *)

type owner = Enclave_owner of int | Sm_owner | Host_owner

val owner_to_string : owner -> string

(** [authorized owner ctx] is true when [ctx] may legitimately observe
    data belonging to [owner]. *)
val authorized : owner -> Exec_context.t -> bool

type seeded = {
  value : Word.t;
  addr : Word.t;
  owner : owner;
  derived : bool;
      (** Derived secrets (sub-words of seeded data) are matched only
          against transient register-file forwards, to avoid false
          positives on short values. *)
}

val pp_seeded : Format.formatter -> seeded -> unit

(** [value_for ~seed ~addr] is the secret for [addr] under fuzzing seed
    [seed]: a SplitMix64 hash, never zero. *)
val value_for : seed:Word.t -> addr:Word.t -> Word.t

type tracker

val create_tracker : unit -> tracker

(** A tracker's registrations at one moment, for the snapshot engine. *)
type capture

(** [capture_tracker t] captures [t] in constant time: the seeded list
    is immutable, so the capture shares it with [t]. *)
val capture_tracker : tracker -> capture

(** [restore_tracker c ~into] makes [into] hold exactly the
    registrations [c] captured.  It rebuilds [into]'s value index from
    them, so {!find_by_value} again returns the newest registration of
    each value at capture time. *)
val restore_tracker : capture -> into:tracker -> unit

(** [register t ~seed ~addr ~owner] computes and records the secret for
    [addr], returning its value. *)
val register : tracker -> seed:Word.t -> addr:Word.t -> owner:owner -> Word.t

(** [register_line t ~seed ~line_addr ~owner] registers all eight words
    of the 64-byte line, returning them lowest address first. *)
val register_line :
  tracker -> seed:Word.t -> line_addr:Word.t -> owner:owner -> seeded list

(** [register_value t ~value ~addr ~owner] records a {e derived} secret:
    a value computed from seeded data (e.g. the sub-words a misaligned
    load assembles) that the checker should also recognise. *)
val register_value : tracker -> value:Word.t -> addr:Word.t -> owner:owner -> unit

val all : tracker -> seeded list

(** [find_by_value t v] is the most recent registration of [v], looked
    up in a value-keyed index (O(1), not a scan of the seeded list). *)
val find_by_value : tracker -> Word.t -> seeded option

val count : tracker -> int
