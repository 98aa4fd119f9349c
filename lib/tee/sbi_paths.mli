open Import

(** Entry-path enumeration for the SBI surface.

    The symbolic engine (lib/symex) cannot execute
    {!Security_monitor.handle_ecall} directly — the monitor is OCaml, not
    guest code — so this module compiles each [Sbi.call]'s dispatch and
    validation logic, specialised to a concrete monitor state
    ({!scenario}), into a small RISC-V decision-tree program over the
    argument registers.  The program is faithful by construction to the
    handler: the function-code comparison on [a7], the 63-bit truncation
    the handler's [Int64.to_int] applies to the eid in [a0] (modelled as
    [sll 1; srl 1]), the linear search over live-table ids, and the
    lifecycle checks, which are concrete once the scenario fixes each
    enclave's state.

    Every complete path through a model program ends in a distinct leaf
    that writes the leaf id to [a1] and the predicted SBI result to
    [a0] before halting, so a symbolic path can be validated
    byte-for-byte by concretely executing the same program and comparing
    [(a0, a1)] — and validated against the real monitor by issuing the
    concretised ecall in an {!establish}ed scenario, restored from its
    {!base}. *)

(** A concrete monitor state: the enclaves that exist (in id order,
    ids are allocated sequentially from 0) and their lifecycle states. *)
type scenario = { name : string; states : Enclave.state list }

(** Canonical scenarios covering every validation outcome: empty table,
    one enclave in each lifecycle state, an ownership-confused mix, and
    a full table (create exhaustion). *)
val scenarios : scenario list

(** Why a path accepts or rejects the call; mirrors
    {!Security_monitor.error} plus the dispatch-level rejections. *)
type outcome =
  | Accepted  (** The monitor performs the call's action. *)
  | Rejected_wrong_code  (** [a7] does not select this call. *)
  | Rejected_invalid_id  (** eid outside the enclave table. *)
  | Rejected_state of Enclave.state  (** Lifecycle check refused. *)
  | Rejected_slots  (** Create with a full table. *)
  | Rejected_context  (** Call invalid from host context (Exit). *)

val outcome_to_string : outcome -> string

type leaf = {
  leaf_id : int;  (** Unique within the model program; written to [a1]. *)
  outcome : outcome;
  result : Word.t option;
      (** Predicted [a0] after the ecall; [None] when the value is
          scenario-data-dependent (attest measurements). *)
  eid : int option;  (** Enclave id this leaf dispatched on, if any. *)
}

type model = {
  call : Sbi.call;
  scenario : scenario;
  program : Program.t;
  leaves : leaf list;  (** In leaf-id order. *)
}

(** [model scenario call] compiles the entry-path decision tree.  The
    program reads only [a0] and [a7], clobbers [t0]..[t2], and each
    root-to-leaf path is feasible for some argument vector. *)
val model : scenario -> Sbi.call -> model

(** Symbol indices ([0] = [a0] ... [7] = [a7]) the SBI documentation
    assigns meaning to for this call — [a7] always, [a0] for every call
    that takes a size or eid.  A path that accepts the call while
    leaving a documented argument unconstrained is a missing-validation
    witness. *)
val documented_args : Sbi.call -> int list

(** [establish config scenario] builds a machine, installs the monitor
    and drives the enclave lifecycle (create / run / exit / destroy)
    until the table matches [scenario.states] exactly. *)
val establish : Config.t -> scenario -> Security_monitor.t

(** [ecall_program args] is the host program materialising the witness
    argument vector [args] (length 8, [a0..a7]) and executing [ECALL];
    running it under an established scenario replays the path against
    the real monitor. *)
val ecall_program : Word.t array -> Program.t

(** {1 Replay from an established scenario}

    A base is a scenario {!establish}ed once and captured: the machine
    with {!Machine.snapshot}, the monitor with
    {!Security_monitor.snapshot}, and the {!Edge.walk} of the
    establishment log at the capture's mark.  Each {!replay} restores
    both captures into the machine and monitor that established the
    scenario and issues one witness's ECALL there.  A replay yields the
    same [a0], stop reason, cycle count and log, byte for byte, as
    {!establish} followed by [Security_monitor.run_host] on a fresh
    machine, without driving the lifecycle again; [test/test_symex.ml]
    checks this for every witness of the exploration on both cores. *)

type base

(** [base config scenario] establishes [scenario] and captures it. *)
val base : Config.t -> scenario -> base

(** The monitor that established the scenario, and that every {!replay}
    runs on; its machine holds the last replay's state and log. *)
val monitor : base -> Security_monitor.t

(** [replay base args] restores [base]'s captures and runs
    [ecall_program args] on its monitor. *)
val replay : base -> Word.t array -> Machine.stop_reason

(** [edges base] is {!Edge.of_log} of the monitor's current log,
    computed by continuing the base's walk over only the records
    appended since the capture (a replay's own records). *)
val edges : base -> (Edge.t * int) list
