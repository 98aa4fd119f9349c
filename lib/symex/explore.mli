open Import

(** Drive every {!Sbi.call} through the {!Security_monitor} entry paths.

    For each (scenario, call) pair the explorer compiles the
    {!Sbi_paths} model, enumerates its feasible paths with {!Eval},
    concretises each path condition into a witness argument vector with
    {!Solver}, and validates the witness twice: a program-level replay
    through the shared {!Instr} semantics (the predicted leaf must match
    the concretely reached one byte-for-byte on the final [(a0, a1)]
    pair), and a monitor-level replay issuing the real [ECALL] on the
    scenario's {!Sbi_paths.base}: the scenario is established once per
    run and captured, and every witness restores that capture before
    its ECALL.  The replay's {!Simlog} log feeds the same {!Edge}
    coverage map the fuzzer uses, walked over only the records the
    witness appended to the base's.

    Everything is deterministic: scenarios are processed (or fanned out
    over {!Parallel.Pool} and merged back) in a fixed order, no wall
    time enters any report, and metrics are accounted on the calling
    domain only — reports are byte-identical across [jobs] values and
    with the sink on or off.  The trace shows one [symex/establish]
    span per scenario and one [symex/replay] span per witness. *)

type finding_kind =
  | Unconstrained
      (** An accepted path never inspected this documented argument. *)
  | High_bits_ignored
      (** The path constrains only the low bits (the handler's 63-bit
          eid truncation): arguments differing in bit 63 alias. *)

type finding = { sym : int; kind : finding_kind }

val finding_to_string : finding -> string

type witness = {
  args : Word.t array;  (** Concrete [a0..a7]. *)
  replay_ok : bool;  (** Program-level replay reached the predicted leaf. *)
  monitor_ok : bool;  (** Monitor-level replay produced the predicted result. *)
}

type path_report = {
  path_id : int;
  leaf : Sbi_paths.leaf option;
  decisions : bool list;
  constraints : string list;
  witness : witness option;
  findings : finding list;
  baseline_reachable : bool;
      (** The concrete baseline vector (correct code, eid 0) reaches
          this leaf without symbolic help. *)
  steps : int;
}

type unit_report = {
  call : Sbi.call;
  scenario : string;
  paths : path_report list;
  forks : int;
  pruned : int;
  truncated : bool;
}

type totals = {
  paths_total : int;
  witnesses_total : int;
  replay_ok_total : int;
  monitor_ok_total : int;
  symex_only_total : int;
      (** Witnessed leaves the baseline vector cannot reach (wrong-code
          leaves excluded — they belong to other calls' dispatchers). *)
  findings_total : int;
  unsat_total : int;
  gave_up_total : int;
  edges_covered : int;  (** Distinct {!Edge} indices over all replays. *)
}

type t = {
  core : string;
  max_paths : int;
  units : unit_report list;  (** Scenario-major, {!Sbi.all} order. *)
  totals : totals;
  truncated : bool;
}

val default_max_paths : int

(** [run config] explores every scenario × call unit.  [max_paths]
    bounds the DFS per model program (default {!default_max_paths}); a
    unit that reaches it is marked truncated.  Raises
    [Invalid_argument] when [max_paths < 1].  [scenarios] defaults to
    {!Sbi_paths.scenarios}. *)
val run :
  ?jobs:int ->
  ?max_paths:int ->
  ?obs:Obs.t ->
  ?scenarios:Sbi_paths.scenario list ->
  Config.t ->
  t
