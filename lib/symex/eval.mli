open Import

(** Concolic evaluator over {!Program.t}.

    Executes a program with [a0..a7] bound to symbols and every other
    register to zero, reusing {!Instr.eval_alu}/{!Instr.eval_cond} — the
    machine's own semantics — for constant folding, so the symbolic and
    the concrete executions of a path can only agree or expose a real
    bug, never drift.

    Branches whose operands are both constant follow the concrete edge
    without forking.  A genuinely symbolic branch forks: the
    fall-through direction is explored first, then the taken direction —
    a fixed depth-first order, so path ids, constraint order and
    therefore every downstream report are deterministic for a given
    program and budget.  Each direction is pruned eagerly when
    {!Solver.refine} proves its constraint unsatisfiable under the
    path's domains. *)

type stop =
  | Halted  (** Reached [Halt] — a model-program leaf. *)
  | Out_of_program
  | Ecall  (** Reached [Ecall]; treated as a terminator. *)
  | Step_limit

type path = {
  path_id : int;  (** Completion index in DFS order, from 0. *)
  decisions : bool list;
      (** Taken/not-taken per symbolic branch, in execution order. *)
  constraints : Expr.rel list;  (** Path condition, in execution order. *)
  env : Solver.env;  (** Per-symbol domains refined along the path. *)
  stop : stop;
  a0 : Expr.t;  (** Final symbolic a0 (the SBI result register). *)
  a1 : Expr.t;  (** Final symbolic a1 (model-program leaf id). *)
  steps : int;
}

type result = {
  paths : path list;  (** In path-id order. *)
  forks : int;  (** Symbolic branches encountered. *)
  pruned : int;  (** Branch directions proven infeasible. *)
  truncated : bool;  (** True when [max_paths] cut enumeration short. *)
}

val default_max_paths : int

(** [run ?max_paths ?max_steps program] enumerates feasible paths.
    Loads and CSR reads evaluate to concrete 0 (the SBI models contain
    neither); stores, CSR writes and fences are no-ops on the register
    state. *)
val run : ?max_paths:int -> ?max_steps:int -> Program.t -> result

(** [concrete program ~args] executes the program concretely (registers
    from [args] for [a0..a7], zero elsewhere, same instruction coverage
    as {!run}) and returns final [(a0, a1)] and the stop cause — the
    replay oracle used to validate predicted paths byte-for-byte. *)
val concrete : Program.t -> args:Word.t array -> (Word.t * Word.t) * stop
