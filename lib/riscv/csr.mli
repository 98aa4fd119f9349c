(** Control and status registers.

    Only the CSRs the TEESec gadgets touch are modelled: the machine trap
    registers used by the security monitor, [satp] for sv39 translation,
    the PMP configuration registers, and the hardware performance counters
    that leak enclave metadata in case M1 of the paper.

    Counter accessibility follows the privileged specification: the
    user-level [hpmcounterN] / [cycle] / [instret] views are readable from
    U or S mode only when the corresponding [mcounteren] bit is set,
    which is exactly the knob the M1 mitigation discussion turns off. *)

type id =
  | Cycle
  | Instret
  | Hpmcounter of int  (** User-level read-only view, index 3..31. *)
  | Mcycle
  | Minstret
  | Mhpmcounter of int  (** Machine-level counter, index 3..31. *)
  | Mstatus
  | Mtvec
  | Mepc
  | Mcause
  | Mtval
  | Mscratch
  | Stvec
  | Sepc
  | Scause
  | Stval
  | Satp
  | Mcounteren
  | Scounteren
  | Pmpcfg of int  (** Index 0..3. *)
  | Pmpaddr of int  (** Index 0..15. *)
  | Mhartid

(** [name id] is the assembler name ([mhpmcounter3]); indexed names up
    to 31 are built once, so naming allocates nothing. *)
val name : id -> string

(** Minimum privilege encoded in the CSR address space (bits 9:8 of the
    CSR number). *)
val required_priv : id -> Priv.t

(** [address id] is the architectural 12-bit CSR number (e.g. [satp] is
    0x180, [mhpmcounter4] is 0xB04). *)
val address : id -> int

(** [of_address n] inverts [address] for the modelled CSRs. *)
val of_address : int -> id option

(** [is_counter id] is true for the user-level counter views whose
    accessibility is additionally gated by [mcounteren]/[scounteren]. *)
val is_counter : id -> bool

(** [counter_index id] is the [mcounteren] bit position guarding a
    user-level counter view ([Cycle] is bit 0, [Instret] bit 2,
    [Hpmcounter n] bit [n]). *)
val counter_index : id -> int option

(** A CSR register file. *)
type t

val create : unit -> t

(** [counter_file t] is the unboxed counter file itself: counter [n] of
    {!modelled_counters} is the 64-bit word at byte [8 * n], in native
    byte order.  It lets a reader copy counters without boxing them;
    never write through it. *)
val counter_file : t -> Bytes.t

(** [copy t] is an independent copy of the register file. *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src]'s contents.
    Nothing in the model iterates the registers, so insertion order
    cannot affect behaviour. *)
val restore_into : t -> into:t -> unit

(** [raw_read t id] reads without any permission check — this is what the
    hardware datapath does before (or in parallel with) the privilege
    check, and is the source of the transient leak in case M1. *)
val raw_read : t -> id -> Word.t

val raw_write : t -> id -> Word.t -> unit

type access_result = Ok of Word.t | Illegal_instruction

(** [read t ~priv id] performs a privilege-checked read. *)
val read : t -> priv:Priv.t -> id -> access_result

(** [write t ~priv id v] performs a privilege-checked write.  Returns
    [Illegal_instruction] when [priv] is insufficient or the CSR is a
    read-only counter view. *)
val write : t -> priv:Priv.t -> id -> Word.t -> (unit, unit) result

(** [bump_counter t n ~by] adds [by] to [Mhpmcounter n] (or [Mcycle] /
    [Minstret] for n = 0 / 2).  The user views alias the machine
    counters.  Bumping mcycle, minstret or mhpmcounter3..31 allocates
    nothing. *)
val bump_counter : t -> int -> by:int -> unit

(** [reset_counters t] zeroes every hardware performance counter — the
    flush-HPC mitigation of Table 4. *)
val reset_counters : t -> unit

(** All counter indices modelled (0, 2, 3..10): cycle, instret and eight
    event counters. *)
val modelled_counters : int list
