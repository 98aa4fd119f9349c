open Import

(** The instrumented core model.

    [Machine.t] ties the microarchitectural structures together behind the
    load/store unit, page-table walker, prefetcher and branch-prediction
    semantics of the configured core, and executes {!Riscv.Program}
    programs.  Every structure mutation is appended to the simulation log
    with its access-path provenance, and a full snapshot of all
    structures is recorded at each context switch — this log is exactly
    what the TEESec checker consumes.

    Transient-execution semantics follow the paper's case studies: a load
    that fails its PMP check still produces the microarchitectural side
    effects the core under test exhibits (register-file write-back of the
    secret on an L1 hit, LFB fill on a BOOM miss, store-buffer forwarding
    on XiangShan, ...) before the access-fault exception is logged and
    the architectural state is left unchanged. *)

type t

(** {1 Traps} *)

type cause =
  | Load_access_fault
  | Store_access_fault
  | Load_page_fault
  | Store_page_fault
  | Illegal_instruction
  | Env_call

type trap = { cause : cause; tval : Word.t }

(** {1 Construction and basic accessors} *)

(** [create ?wave config] builds a machine.  With [~wave:true] its
    {!log} is tapped: it also keeps a wave record for every structure
    operation the log does not already record (see [Simlog.Log] and
    [Wave.Event.of_log]); by default no wave record is kept and each
    emission site costs one predicted branch.  Verdicts are
    byte-identical with taps on or off: the one branch on the taps
    outside event emission ({!memset_region} takes its line path only
    with taps off) chooses between two paths that a differential pins
    equal. *)
val create : ?wave:bool -> Config.t -> t

val memory : t -> Memory.t
val csr : t -> Csr.t
val pmp : t -> Pmp.t
val log : t -> Log.t
val cycle : t -> int

val context : t -> Exec_context.t

(** [set_context t ctx] changes the executing context {e without}
    logging or flushing — the security monitor uses {!switch_context}
    instead. *)
val set_context : t -> Exec_context.t -> unit

(** {1 Architectural registers} *)

val get_reg : t -> int -> Word.t
val set_reg : t -> int -> Word.t -> unit

(** {1 Structure observation (used by tests, the execution model and the
    checker's classification)} *)

val l1_contains : t -> addr:Word.t -> bool
val l1i_contains : t -> addr:Word.t -> bool
val l2_contains : t -> addr:Word.t -> bool
val lfb_holds : t -> Word.t -> bool
val store_buffer_holds : t -> Word.t -> bool
val store_buffer_occupancy : t -> int
val rf_holds : t -> Word.t -> bool
val ubtb : t -> Btb.t

(** {1 Micro-operations}

    These are the data-path primitives shared by the instruction
    interpreter and the security monitor (whose memset and context-save
    routines go through the same hierarchy, which is how D3 and M1
    reproduce). *)

type access_result = {
  value : Word.t;
      (** Architectural result; on a fault this is the {e transient}
          value that was forwarded, if any. *)
  fault : trap option;
  latency : int;
  transient_forward : bool;
      (** True when [fault] is set but [value] was still forwarded to
          dependents and written back. *)
}

val load :
  ?origin:Log.origin -> t -> vaddr:Word.t -> size:int -> unit -> access_result

val store :
  ?origin:Log.origin -> t -> vaddr:Word.t -> size:int -> value:Word.t -> unit ->
  trap option

(** [fence t] drains the store buffer. *)
val fence : t -> unit

(** [memset_region t ~origin ~addr ~size ~value] stores [value] over
    every aligned word of the region through the store path — the
    security monitor's enclave-destroy cleanser.  When nothing can
    observe individual words (no advance hook, wave taps off, machine
    mode, and [Pmp.allows_region] or the stuck-at-grant fault granting
    the whole region) it takes a line path: the memset's store-buffer
    entries are not materialised, and each drain writes them one
    line-sized run at a time, with one L1 lookup and at most one refill
    per run.  Otherwise it is {!memset_words}.  While an advance hook
    is armed, words go one at a time through {!store}; a hook that
    removes itself mid-region (a spent fault plan's does) hands the
    remainder back to this dispatch, which takes the line path for it
    under the same conditions.  Every path leaves the same log records,
    cycles, counters and structure contents. *)
val memset_region :
  t -> origin:Log.origin -> addr:Word.t -> size:int64 -> value:Word.t -> unit

(** [memset_words] is the oracle for {!memset_region}: each word goes
    through {!store}, then the store buffer is drained.  It is the path
    for every case the line path does not cover, and the differential
    tests compare the line path against it. *)
val memset_words :
  t -> origin:Log.origin -> addr:Word.t -> size:int64 -> value:Word.t -> unit

(** {1 Flushes} *)

(** [flush_tlb t] empties the DTLB.  Nothing calls it yet, so the
    [Dtlb] flush faults cannot act. *)
val flush_tlb : t -> unit

(** [evict_line t ~addr] pushes the line holding [addr] out of the L1
    (writing it back to the L2 if dirty) — used by helper gadgets that
    place a secret in the L2 but not the L1. *)
val evict_line : t -> addr:Word.t -> unit

(** [evict_line_l2 t ~addr] drops the line from the L2 as well (its
    contents are already backed by memory), leaving the secret resident
    only in DRAM. *)
val evict_line_l2 : t -> addr:Word.t -> unit

(** {1 Machine snapshot/restore}

    The execution-engine snapshot (distinct from the {!Log.Snapshot}
    events recorded at context switches): a deep copy of every mutable
    piece of machine state, used by the snapshot/fork engine
    ([Teesec.Snapshot]) to run a shared setup prefix once and restore it
    per test case. *)

type snapshot

(** [snapshot t] deep-copies all mutable machine state, including the
    log position.  The ecall handler is not captured (it is a binding
    into the installed security monitor and stays valid across
    restores); the fault-injection advance hook must not be armed when a
    snapshot is taken. *)
val snapshot : t -> snapshot

(** [restore t s] overwrites [t] with the state captured by [snapshot],
    blitting into [t]'s preallocated structures, truncating the log back
    to the captured position, and clearing any armed advance hook.
    Raises [Invalid_argument] when [t] was created from a config with
    different structure geometry. *)
val restore : t -> snapshot -> unit

(** {1 Fault injection}

    Deterministic perturbation hooks driven by the fault injector
    ([lib/inject]).  Every applied fault logs a [Fault_injected] event,
    and injected data is logged with the [Fault_inject] provenance, so
    robustness campaigns can attribute checker-verdict changes to a
    specific fault. *)

(** How a flush primitive behaves while a flush fault is armed:
    [Flush_normal] restores faithful behaviour, [Flush_dropped] turns
    the flush into a no-op, [Flush_partial] clears only part of the
    structure (even slots / oldest half, depending on the structure). *)
type flush_behaviour = Flush_normal | Flush_dropped | Flush_partial

(** [faults_logged t] is the number of [Fault_injected] records [t] has
    logged: every fault hook below logs through one emitter that counts.
    {!snapshot} captures the count and {!restore} rewinds it, so it
    equals the number of [Fault_injected] records in {!log}. *)
val faults_logged : t -> int

(** [set_advance_hook t (Some f)] calls [f t] each time the machine
    burns cycles.
    The injector uses this as its cycle trigger: the hook inspects
    {!cycle} and applies faults whose window has opened.  Re-entrant
    calls are suppressed — cycles burnt by the hook's own perturbations
    do not re-invoke it.  [None] removes the hook; [f] may remove
    itself, and an exception it raises propagates to the operation
    that burnt the cycles. *)
val set_advance_hook : t -> (t -> unit) option -> unit

(** [set_flush_fault t ~structure behaviour] arms (or, with
    [Flush_normal], disarms) a flush fault.  The keyed structures are
    [L1d_data], [Lfb], [Store_buffer], [Dtlb] ({!flush_tlb}), [Ubtb]
    and [Hpm_counters]; each fault acts on the flush of its structure
    that a context switch's mitigations or a helper gadget performs. *)
val set_flush_fault : t -> structure:Structure.t -> flush_behaviour -> unit

(** [set_pmp_stuck_grant t true] forces every data-path PMP check (loads,
    stores, instruction fetch, PTW accesses) to report "allowed" until
    disarmed — the stuck-at fault on the permission-check output. *)
val set_pmp_stuck_grant : t -> bool -> unit

(** [delay_snapshots t ~count] makes the next [count] calls to
    {!snapshot_all} record nothing (beyond a [Fault_injected] marker) —
    the instrumentation misses those context switches. *)
val delay_snapshots : t -> count:int -> unit

(** [flip_bit t ~structure ~select ~bit] flips one bit in one occupied
    entry of [structure]; [select] deterministically picks the entry
    (and word) and [bit] the bit position, both wrapping.  Returns
    [false] when the structure is empty (or carries no data payload in
    this model), in which case nothing is logged. *)
val flip_bit : t -> structure:Structure.t -> select:int -> bit:int -> bool

(** {1 Context switching} *)

(** [switch_context t ~to_ctx] logs the mode switch, applies the
    configured mitigation flushes, records a full snapshot of every
    structure, and installs the new context. *)
val switch_context : t -> to_ctx:Exec_context.t -> unit

(** [snapshot_all t] records a [Snapshot] log event for every modelled
    structure. *)
val snapshot_all : t -> unit

(** {1 Program execution} *)

type stop_reason = Halted | Out_of_program | Step_limit | Fetch_fault

val stop_reason_to_string : stop_reason -> string

(** [set_ecall_handler t f] installs the machine-mode environment-call
    handler (the security monitor's SBI entry point). *)
val set_ecall_handler : t -> (t -> unit) -> unit

(** [set_pending_interrupt t f] arms a one-shot external interrupt whose
    service routine is [f].  In this model the interrupt fires in the
    transient window of a lazily-checked faulting CSR read (the M1
    scenario); it is cleared after firing. *)
val set_pending_interrupt : t -> (t -> unit) -> unit

(** [run t prog] interprets [prog] from its base address until a [Halt],
    the end of the program, or the step limit.  Faults from the untrusted
    program are logged and skipped (the attacker installs a trap handler
    that resumes at the next instruction); [Ecall] invokes the installed
    handler. *)
val run : t -> Program.t -> stop_reason

(** {1 Binary execution}

    The equivalent of the artifact's compiled-payload path: a machine
    code image placed in physical memory and executed by fetching
    through the instruction cache (PMP execute checks apply; code lines
    become visible I-cache state). *)

(** [run_binary t ~base words] loads and executes a machine-code image;
    [Error] reports an undecodable word. *)
val run_binary :
  t -> base:Word.t -> Riscv.Encode.word array -> (stop_reason, string) result
