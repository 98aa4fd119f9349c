open Import

(** Abstract values over {!Word.t}: a signed interval product a
    known-bits lattice.

    Each element represents the set of 64-bit words [x] with
    [lo <=s x <=s hi] (signed order, matching {!Instr.eval_cond}'s
    [Lt]/[Ge]), [x land zeros = 0] and [x land ones = ones].  This is the
    whole constraint theory the SBI surface needs — equality/ordering
    against constants and bit-slicing through shifts and masks — so no
    external SMT solver is involved anywhere.

    Elements constructed through this interface are normalised (each
    component tightened against the other) but possibly still
    over-approximate: an element may denote a superset of what its
    constraints allow, never a subset.  The concrete membership test
    {!mem} is exact with respect to the four stored constraints, and the
    solver double-checks every candidate concretely, so over-approximation
    costs completeness at worst, never soundness. *)

type t = private {
  lo : Word.t;  (** Signed inclusive lower bound. *)
  hi : Word.t;  (** Signed inclusive upper bound. *)
  zeros : Word.t;  (** Mask of bits known to be 0. *)
  ones : Word.t;  (** Mask of bits known to be 1. *)
}

val top : t
val const : Word.t -> t

(** [make ~lo ~hi ~zeros ~ones] normalises the components against each
    other; [None] when they are contradictory (empty interval,
    overlapping zero/one masks, or bit-level bounds excluding the whole
    interval). *)
val make : lo:Word.t -> hi:Word.t -> zeros:Word.t -> ones:Word.t -> t option

val of_interval : lo:Word.t -> hi:Word.t -> t option
val of_bits : zeros:Word.t -> ones:Word.t -> t option

(** Exact membership against the stored constraints. *)
val mem : Word.t -> t -> bool

val as_const : t -> Word.t option

(** Bits that are neither known-zero nor known-one. *)
val unknown_bits : t -> Word.t

(** Least upper bound: [mem x a || mem x b] implies [mem x (join a b)]. *)
val join : t -> t -> t

(** Greatest lower bound; [None] when provably empty.  Sound both ways:
    [mem x a && mem x b] implies the meet is [Some d] with [mem x d]. *)
val meet : t -> t -> t option

(** Forward transfer function for {!Instr.eval_alu}: if [mem x a] and
    [mem y b] then [mem (Instr.eval_alu op x y) (transfer op a b)]. *)
val transfer : Instr.alu_op -> t -> t -> t

(** Deterministic concretisation proposals, most interesting first
    (bounds, bit-pattern extremes, zero); every element satisfies
    {!mem}.  Never empty for elements whose denotation is non-empty. *)
val candidates : t -> Word.t list
