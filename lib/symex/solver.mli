open Import

(** Constraint solving over the {!Domain} lattice — the hand-rolled
    replacement for an SMT solver.

    Two cooperating pieces: {!refine} pushes a single constraint
    backwards through the expression into the per-symbol domains (used
    by the evaluator to prune infeasible branch directions eagerly), and
    {!concretize} turns a full path condition into a witness argument
    vector by proposing domain-guided candidates and verifying the
    conjunction concretely with {!Expr.rel_holds}.  Verification is
    exact, so an over-approximate refinement can only cost completeness
    ([None]), never produce a bogus witness. *)

type env = Domain.t array
(** One domain per argument symbol [a0..a7], indexed 0..7. *)

val top_env : unit -> env

(** [refine rel env] strengthens [env] with [rel]; [None] means the
    constraint is provably unsatisfiable under [env].  Inversion is
    structural: equalities/orderings against constants propagate through
    [Sym], constant shifts ([sll]/[srl]), [and]/[or]/[xor] with constant
    masks and [add]/[sub] with constant offsets — exactly the shapes the
    SBI entry-path models generate. *)
val refine : Expr.rel -> env -> env option

type stats = {
  mutable solved : int;  (** Concretisations that produced a witness. *)
  mutable unsat : int;  (** Proven unsatisfiable during refinement. *)
  mutable gave_up : int;  (** Search budget exhausted without witness. *)
}

val stats : unit -> stats

(** [concretize ?stats rels] — a deterministic argument vector
    satisfying every constraint in [rels], or [None].  Symbols not
    mentioned by any constraint concretise to the first candidate of
    their refined domain (0 when unconstrained).  The candidate product
    search is bounded, so the call always terminates quickly. *)
val concretize : ?stats:stats -> Expr.rel list -> Word.t array option
