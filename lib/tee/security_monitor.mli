open Import

(** Keystone-style security monitor.

    Runs (conceptually) in machine mode and owns enclave lifecycle, PMP
    domain programming and the context switches between the untrusted
    host and enclaves.  The monitor's memory operations — notably the
    [memset] that cleanses enclave memory on destroy and the
    register-spill of the interrupt service routine — go through the
    machine's real load/store unit so that their microarchitectural side
    effects are visible to the checker (leakage cases D3 and M1 depend on
    this).

    Two interfaces are exposed: the OCaml API below (used by the TEESec
    runner to orchestrate tests) and the guest-visible SBI: host programs
    execute [ECALL] with a function code in [a7] and the installed
    handler dispatches to the same implementations.

    Deliberately reproduced Keystone properties (the paper's findings
    rely on them): no microarchitectural state is flushed on context
    switches unless a mitigation is configured, and the hardware
    performance counters are never reset. *)

type error =
  | Invalid_enclave_id
  | Invalid_state of Enclave.state
  | Out_of_enclave_slots

val error_to_string : error -> string

type t

(** [install machine] programs the host PMP domain, installs the SBI
    handler, switches the machine to host-supervisor context and returns
    the monitor handle. *)
val install : Machine.t -> t

val machine : t -> Machine.t

(** {1 Snapshot/restore (execution-engine forking)} *)

type snapshot

(** [snapshot t] deep-copies the monitor's mutable state (enclave
    records, registered programs, satp table, banked host registers).
    The machine is captured separately via {!Machine.snapshot}. *)
val snapshot : t -> snapshot

(** [restore t s] overwrites [t]'s state in place.  The ecall handler
    installed by {!install} closes over the monitor record itself, so it
    stays valid across restores. *)
val restore : t -> snapshot -> unit

val enclave : t -> int -> Enclave.t option

(** {1 Enclave lifecycle (OCaml API)} *)

(** [create_enclave t ()] allocates the next region from the pool.
    The region's PMP entry immediately protects it from the host. *)
val create_enclave : t -> ?size:int -> unit -> (int, error) result

(** [register_enclave_program t eid prog] supplies the code the enclave
    will execute on its next run/resume.  The test harness sets this up
    before driving the host program. *)
val register_enclave_program : t -> int -> Program.t -> unit

(** [run_enclave t eid] context-switches into the enclave, executes its
    registered program to completion ([Halt] yields back, putting the
    enclave in [Stopped]; an [Exit_enclave] SBI call puts it in
    [Exited]), and switches back to the host. *)
val run_enclave : t -> int -> (Enclave.state, error) result

(** [resume_enclave t eid] re-runs a stopped enclave (with its registered
    program; register a new fragment to model progress). *)
val resume_enclave : t -> int -> (Enclave.state, error) result

(** [destroy_enclave t eid] checks the state machine, zeroes the region
    through the store path ([Memset_destroy] origin), releases the PMP
    entry and marks the enclave destroyed. *)
val destroy_enclave : t -> int -> (unit, error) result

(** [attest_enclave t eid] returns the measurement recorded at
    creation. *)
val attest_enclave : t -> int -> (Word.t, error) result

(** {1 Host execution} *)

(** [run_host t prog] runs an untrusted host program in
    host-supervisor context (the default). *)
val run_host : t -> Program.t -> Machine.stop_reason

(** [run_host_user t prog] runs it in user mode instead. *)
val run_host_user : t -> Program.t -> Machine.stop_reason

(** {1 Interrupt service (M1 scenario)} *)

(** [arm_external_interrupt t] arms a one-shot interrupt whose service
    routine performs a context save: it spills the 32 architectural
    registers to SM memory through the store path ([Context_save]
    origin), filling the store buffer — Figure 6 of the paper. *)
val arm_external_interrupt : t -> unit

(** {1 Measurement} *)

(** [measure t ~base ~size] hashes a memory region (used at enclave
    creation). *)
val measure : t -> base:Word.t -> size:int -> Word.t

(** {1 PMP domains (exposed for tests)} *)

(** [program_host_pmp t] installs the host domain: SM and every live
    enclave region protected, background allow-all. *)
val program_host_pmp : t -> unit

(** [program_enclave_pmp t eid] installs the enclave domain: own region
    and shared UTM accessible, everything else denied. *)
val program_enclave_pmp : t -> int -> unit
