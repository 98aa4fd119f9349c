open Import

(** Symbolic expressions over the argument registers and path
    constraints.

    Terms are built from constants, the eight argument symbols ([Sym 0]
    = [a0] ... [Sym 7] = [a7]) and {!Instr.alu_op} applications; the
    smart constructor {!bin} folds constants through {!Instr.eval_alu}
    (the machine's own semantics) and applies algebraic identities, so a
    register that never depended on a symbol stays a [Const] and the
    evaluator forks only on genuinely symbolic branches. *)

type t = Const of Word.t | Sym of int | Bin of Instr.alu_op * t * t

val const : Word.t -> t
val sym : int -> t

(** Simplifying constructor.  Simplification is semantics-preserving:
    [eval env (bin op a b) = Instr.eval_alu op (eval env a) (eval env b)]
    for every environment. *)
val bin : Instr.alu_op -> t -> t -> t

val equal : t -> t -> bool

(** [eval env t] — concrete evaluation; [env i] is the value of
    [Sym i]. *)
val eval : env:(int -> Word.t) -> t -> Word.t

(** [abstract env t] — sound abstract evaluation through
    {!Domain.transfer}. *)
val abstract : env:(int -> Domain.t) -> t -> Domain.t

val to_string : t -> string

(** {1 Constraints} *)

(** An atomic path constraint: [Instr.eval_cond cond lhs rhs] is
    required to hold (the fall-through direction of a branch is stored
    through {!Instr.negate_cond}, so constraints are always positive). *)
type rel = { cond : Instr.cond; lhs : t; rhs : t }

val rel_holds : env:(int -> Word.t) -> rel -> bool
val negate_rel : rel -> rel
val rel_syms : rel -> int list
val rel_to_string : rel -> string
