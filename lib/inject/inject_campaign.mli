open! Import

(** Checker-robustness campaigns.

    Reruns a test-case corpus under sampled fault plans and diffs each
    faulted run's checker verdict against the clean baseline of the
    same test case.  The interesting question is not whether the fault
    changed the machine (it usually does) but whether it changed what
    the {e checker} concludes:

    - {e masked} — a leakage case found on the clean run disappears
      under the fault: a false negative of the detection methodology.
    - {e spurious} — a case appears that the clean run did not report.
    - {e stable} — the verdict is unchanged.

    Everything is deterministic: plans derive from the campaign seed,
    injection is driven by the machine's cycle count, and results are
    merged in plan-major order, so the same seed yields byte-identical
    reports for every [jobs] value. *)

type outcome = Stable | Spurious | Masked

val outcome_to_string : outcome -> string

type counts = { stable : int; spurious : int; masked : int }

(** Verdict difference of one faulted (plan, test case) run against the
    test case's clean baseline. *)
type unit_diff = {
  testcase : string;
  masked_cases : Case.id list;  (** In baseline, missing under fault. *)
  spurious_cases : Case.id list;  (** Under fault, not in baseline. *)
}

type plan_result = {
  plan : Fault_plan.t;
  outcome : outcome;  (** Worst unit outcome (masked > spurious > stable). *)
  diffs : unit_diff list;  (** One per test case, in corpus order. *)
  faults_applied : int;
      (** Fault events actually logged across the plan's runs — a
          sampled fault can be a no-op when its target is empty. *)
}

type result = {
  config : Config.t;
  seed : Word.t;
  testcases : int;
  baseline_found : Case.id list;  (** Union of clean-run cases. *)
  baseline_matches_paper : bool;
      (** Clean baseline reproduces the paper's Table 3 column. *)
  baseline_residue : int;
  plan_results : plan_result list;
  plan_totals : counts;  (** Plan-level classification. *)
  unit_totals : counts;  (** (plan, test case)-level classification. *)
  by_model : (Fault_model.t * counts) list;
      (** Plan outcomes attributed to each fault model a plan contains. *)
  by_structure : (Structure.t * counts) list;
      (** Same, keyed by the perturbed structure. *)
  waves : (string * string) list;
      (** Per-test-case (name, encoded wave stream) pairs for the {e
          clean baselines}, in corpus order; empty unless the run was
          tapped.  Faulted reruns are not collected —
          they would multiply the volume by the plan count.  No rendered
          verdict artifact includes them. *)
  provenance : Provenance.t list;
      (** Causal chains of the clean baselines' classified findings, in
          corpus order — the reference the masked/spurious fault diffs
          are read against.  Derived from the log only (identical across
          wave, jobs and snapshot settings). *)
}

type case_eval = {
  ce_base : Campaign.case_outcome;
      (** The clean run's verdict, built as a campaign builds it. *)
  ce_units : (unit_diff * int) array;
      (** One per plan, in plan order; the int is faults applied. *)
}
(** The evaluation of one test case under every plan — the unit of work
    the campaign service (lib/serve) ships between worker processes and
    the daemon.  [case_eval]s for any partition of a corpus, concatenated
    back in corpus order and folded through {!aggregate}, produce exactly
    the {!result} a single {!run} would. *)

(** [eval_case ?snapshots config plan_list tc] evaluates the clean
    baseline and every faulted rerun of one test case.  [wave] (default
    false) attaches a wave tap on the replay path (an engine carries its
    own setting); the baseline's stream lands in its [co_wave].  Faulted
    units compute only their distinct cases, to diff against the
    baseline's.

    With an engine, a unit whose plan cannot fire within the baseline's
    span is not run, and one whose plan is spent without a trace stops
    there ({!Injector.Spent_clean}); both get the clean verdict with
    zero faults, exactly what running them to the end gives.  Without
    an engine every unit runs to the end: that path is the oracle. *)
val eval_case :
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  Config.t ->
  Fault_plan.t list ->
  Testcase.t ->
  case_eval

(** [aggregate ?progress ?obs ~seed ~plan_list config evals] folds
    per-case evaluations (in corpus order; [plan_list] must be the plan
    list the evaluations ran against, i.e. [Fault_plan.sample ~seed]) into
    the campaign result.  The baseline fields come from one
    {!Campaign.aggregate} over the clean outcomes.  Deterministic: a pure
    sequential fold. *)
val aggregate :
  ?progress:(int -> int -> string -> unit) ->
  ?obs:Obs.t ->
  seed:Word.t ->
  plan_list:Fault_plan.t list ->
  Config.t ->
  case_eval list ->
  result

(** [run ~seed ~plans config testcases] samples [plans] fault plans from
    [seed], computes the clean per-test-case baselines, reruns every
    (plan, test case) pair with the plan armed, and aggregates.

    [jobs] (default 1) fans the test cases out over that many OCaml 5
    domains — one task evaluates a test case's baseline and all its
    faulted reruns back to back; merging is sequential and ordered, so
    the result is identical for every [jobs] value.  [progress] is
    called once per faulted unit with (index, total, summary line), in
    plan-major order.

    [snapshots], if given, establishes each run's setup prefix through
    the snapshot engine (see {!Teesec.Snapshot}); because a test case's
    baseline and faulted reruns share one prefix and run on one domain,
    every rerun after the first forks from a cached snapshot, and
    reruns that provably end in the clean verdict are cut short or
    skipped (see {!eval_case}).  The report stays byte-identical either
    way.

    [obs] (default [Obs.noop]) receives a phase span ([inject/cases])
    and unit/outcome/fault counters.  The sink only reads campaign
    state — the result is identical with or without it.

    [wave] (default false) taps every replayed baseline's machine and
    collects the streams into [result.waves]; an engine carries its own
    setting ({!Snapshot.create}'s [wave]) and [wave] is then ignored.  Verdict fields are unaffected. *)
val run :
  ?progress:(int -> int -> string -> unit) ->
  ?jobs:int ->
  ?obs:Obs.t ->
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  seed:Word.t ->
  plans:int ->
  Config.t ->
  Testcase.t list ->
  result
