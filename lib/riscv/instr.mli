(** Symbolic RV64 instruction subset.

    TEESec gadgets are short assembly sequences; this module defines the
    instructions they are built from.  Instructions stay symbolic (no
    binary encoding): branch targets are label names resolved by
    {!Program}, and CSRs are referenced by {!Csr.id}.  The subset covers
    everything the paper's gadgets use: loads and stores of every width
    (including misaligned ones), ALU operations to derive and transmit
    secrets, conditional branches to exercise the branch predictors, CSR
    reads and writes, and the privilege-transition instructions. *)

type reg = int
(** Register index 0..31; x0 is hard-wired to zero. *)

val a0 : reg
val a1 : reg
val a2 : reg
val a3 : reg
val a4 : reg
val a5 : reg
val a6 : reg
val a7 : reg
val t0 : reg
val t1 : reg
val t2 : reg

type width = Byte | Half | Word_ | Double

val width_bytes : width -> int

type alu_op = Add | Sub | Xor | Or | And | Sll | Srl

type cond = Eq | Ne | Lt | Ge

val eval_alu : alu_op -> Word.t -> Word.t -> Word.t
(** Reference ALU semantics shared by the concrete machine
    ({!Uarch.Machine}) and the symbolic evaluator (lib/symex).  Shifts
    use the low six bits of the second operand, as RV64 does. *)

val eval_cond : cond -> Word.t -> Word.t -> bool
(** Reference branch-condition semantics ([Lt]/[Ge] are signed),
    likewise shared between concrete and symbolic execution. *)

val alu_name : alu_op -> string

val negate_cond : cond -> cond
(** [negate_cond c] is the condition holding exactly when [c] does not;
    the symbolic evaluator uses it to phrase the fall-through path of a
    branch as a positive constraint. *)

type t =
  | Li of reg * Word.t  (** Load immediate (pseudo-instruction). *)
  | Alu of alu_op * reg * reg * reg  (** [Alu (op, rd, rs1, rs2)]. *)
  | Alui of alu_op * reg * reg * Word.t  (** [Alui (op, rd, rs1, imm)]. *)
  | Load of { width : width; rd : reg; base : reg; offset : Word.t }
  | Store of { width : width; rs : reg; base : reg; offset : Word.t }
  | Branch of cond * reg * reg * string  (** Conditional branch to label. *)
  | Jal of string  (** Unconditional jump to label. *)
  | Csrr of reg * Csr.id  (** CSR read into [rd]. *)
  | Csrw of Csr.id * reg  (** CSR write from [rs]. *)
  | Ecall  (** Environment call into the security monitor. *)
  | Fence  (** Serialise outstanding memory operations. *)
  | Nop
  | Halt  (** Simulator-only: end the current program. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [ld rd base offset] is a double-word load, the most common gadget
    building block. *)
val ld : reg -> reg -> Word.t -> t

val sd : reg -> reg -> Word.t -> t
