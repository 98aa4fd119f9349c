open! Import

(** Concrete execution environment for one test case.

    A fresh machine with the security monitor installed, a secret
    tracker, and the handles gadgets need to share (victim/attacker
    enclave ids, the HPC baseline recorded by the priming helper).  The
    environment is discarded after the test so test cases never interfere
    with each other. *)

type t = {
  sm : Security_monitor.t;
  machine : Machine.t;
  tracker : Secret.tracker;
  params : Params.t;
  mutable victim : int option;  (** Victim enclave id. *)
  mutable attacker : int option;  (** Attacker enclave id (D6). *)
  mutable hpc_baseline : (int * Word.t) list;
      (** Counter-index/value pairs recorded by Prime_HPCs. *)
  mutable program_trace : (string * Program.t) list;
      (** Programs executed so far, most recent first, labelled with the
          context that ran them — the artifact's generated
          [dummy_entry.S] equivalent. *)
}

(** [record_program t ~label prog] appends to the trace (called by the
    gadget library's run helpers). *)
val record_program : t -> label:string -> Program.t -> unit

(** [programs t] is the executed-program trace in execution order. *)
val programs : t -> (string * Program.t) list

(** [create ?wave config params] — with [~wave:true] the machine's log
    is tapped (see {!Machine.create}); default off. *)
val create : ?wave:bool -> Config.t -> Params.t -> t

(** {1 Snapshot/restore}

    The execution-engine fork point: a deep capture of the whole
    environment (machine, security monitor, secret tracker, enclave
    handles).  [restore] targets a {e fresh} environment created with
    the same config — typically [Env.create config params] followed by
    [Env.restore] in place of replaying the setup-gadget prefix. *)

type snapshot

val snapshot : t -> snapshot

(** [restore t s] overwrites [t] with the captured state.  [t.params] is
    left untouched (it belongs to the test case being run); everything
    else — including the machine's log position — is restored.  Raises
    [Invalid_argument] when [t]'s config has different geometry. *)
val restore : t -> snapshot -> unit

(** [victim_exn t] / [attacker_exn t] — the enclave ids; raises
    [Invalid_argument] when the setup gadget has not run. *)
val victim_exn : t -> int

val attacker_exn : t -> int

(** [victim_secret_line t] is the line the victim's secrets are seeded
    at: the start of the victim's region plus the parameter line
    selector. *)
val victim_secret_line : t -> Word.t

(** [secret_addr t] is the exact address the access gadget targets:
    secret line plus the offset parameter. *)
val secret_addr : t -> Word.t
