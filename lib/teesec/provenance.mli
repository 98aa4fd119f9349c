open! Import

(** Finding provenance: the machine-readable causal chain behind one
    checker finding.

    A provenance record names the writing access (the gadget, the cycle,
    the structure and the entry slot that absorbed the secret), the
    surviving-residue window, and the observing check — everything the
    [explain] subcommand needs to reconstruct why a verdict was
    reported.  Records are derived purely from the simulation records
    of the log, so they are byte-identical across wave-tap settings, job
    counts and snapshot paths.  A waveform's residue events are derived
    from the same [Snapshot] records that end a record's residue
    window. *)

(** The access that wrote the leaking value into the structure. *)
type access = {
  a_gadget : string;
      (** The gadget the write is attributed to.  Writes after the
          fork point belong to the access gadget; earlier writes are
          attributed to the setup prefix, named after its final
          (typically secret-seeding) helper as ["prefix:<name>"]. *)
  a_origin : string;  (** {!Log.origin_to_string}; [""] when unknown. *)
  a_cycle : int;
  a_structure : string;  (** {!Structure.to_string}. *)
  a_slot : int;  (** Entry index inside the structure. *)
}

type t = {
  p_id : string;  (** ["<core>/<case>/<testcase-id>/<structure>"]. *)
  p_core : string;
  p_case : string;  (** {!Case.to_string}, or ["residue"] for warnings. *)
  p_testcase : string;
  p_testcase_id : int;
  p_structure : string;
  p_detection : string;  (** ["fetched"] or ["residue"]. *)
  p_check : string;
      (** Observing check: ["data-leakage"], ["btb-residue"],
          ["hpc-delta"] or ["residue-scan"]. *)
  p_cycle : int;  (** Detection cycle. *)
  p_ctx : string;  (** Observing context, {!Exec_context.to_string}. *)
  p_write : access option;
  p_window : (int * int) option;
      (** Surviving-residue window [(write cycle, detection cycle)]. *)
  p_secret : string;  (** Leaked value in hex; [""] for metadata cases. *)
  p_last_pc : string;  (** PC of the last committed instruction, or [""]. *)
  p_note : string;
}

(** [of_outcome ~config outcome findings] derives one record per finding
    from the outcome's log, in finding order.  Deterministic: depends
    only on the log records and the test case. *)
val of_outcome : config:Config.t -> Runner.outcome -> Checker.finding list -> t list

(** Structural equality — what [explain --verify] asserts between the
    original and the replayed record. *)
val equal : t -> t -> bool

(** [parse_id s] splits ["core/case/tcid/structure"]; [Error] on any
    other shape or an unknown structure name. *)
val parse_id : string -> (string * string * int * Structure.t, string) result

(** Renders the causal chain as numbered prose — the [explain] output. *)
val pp_chain : Format.formatter -> t -> unit

(** The record as a JSON object; {!of_json} reads it back. *)
val to_value : t -> Obs.Json.t

(** [to_json p] is the one-line rendering of [to_value p]. *)
val to_json : t -> string

(** [list_to_json ps] is the one-line rendering of a JSON array of
    {!to_value} objects. *)
val list_to_json : t list -> string

(** [of_json s] inverts {!to_json} (via the {!Obs.Json} reader). *)
val of_json : string -> (t, string) result

val list_of_json : string -> (t list, string) result
