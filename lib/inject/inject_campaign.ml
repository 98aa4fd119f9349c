open! Import

type outcome = Stable | Spurious | Masked

let outcome_to_string = function
  | Stable -> "stable"
  | Spurious -> "spurious"
  | Masked -> "masked"

(* Masked dominates: a checker that misses a real finding under a fault
   is worse than one that reports an extra one. *)
let worst a b =
  match (a, b) with
  | Masked, _ | _, Masked -> Masked
  | Spurious, _ | _, Spurious -> Spurious
  | Stable, Stable -> Stable

type counts = { stable : int; spurious : int; masked : int }

let zero_counts = { stable = 0; spurious = 0; masked = 0 }

let count_outcome c = function
  | Stable -> { c with stable = c.stable + 1 }
  | Spurious -> { c with spurious = c.spurious + 1 }
  | Masked -> { c with masked = c.masked + 1 }

type unit_diff = {
  testcase : string;
  masked_cases : Case.id list;
  spurious_cases : Case.id list;
}

type plan_result = {
  plan : Fault_plan.t;
  outcome : outcome;
  diffs : unit_diff list;
  faults_applied : int;
}

type result = {
  config : Config.t;
  seed : Word.t;
  testcases : int;
  baseline_found : Case.id list;
  baseline_matches_paper : bool;
  baseline_residue : int;
  plan_results : plan_result list;
  plan_totals : counts;
  unit_totals : counts;
  by_model : (Fault_model.t * counts) list;
  by_structure : (Structure.t * counts) list;
  waves : (string * string) list;
  provenance : Provenance.t list;
}

(* True when no fault in [plan] can fire within [span] cycles of the
   fork point.  Strict comparison: a window opening exactly at the final
   cycle still fires (and logs a fault event), so it must run. *)
let plan_never_fires (plan : Fault_plan.t) ~span =
  List.for_all
    (fun (f : Fault_plan.fault) -> f.Fault_plan.window_start > span)
    plan.Fault_plan.faults

(* The verdict of a unit whose run is the clean run: no diff, no fault. *)
let clean_unit (base : Campaign.case_outcome) =
  ({ testcase = base.Campaign.co_name; masked_cases = []; spurious_cases = [] }, 0)

(* A faulted unit is only diffed against its baseline: it computes its
   distinct cases, not a whole case outcome. *)
let eval_unit ?snapshots ~stop_when_inert config (plan, tc, (base : Campaign.case_outcome)) =
  match
    Runner.run ?snapshots
      ~prepare:(fun env -> Injector.arm ~stop_when_inert env.Env.machine plan)
      config tc
  with
  | exception Injector.Spent_clean -> clean_unit base
  | outcome ->
    let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
    let cases = Checker.distinct_cases findings in
    let base_cases = base.Campaign.co_cases in
    let masked_cases =
      List.filter (fun c -> not (List.exists (Case.equal c) cases)) base_cases
    in
    let spurious_cases =
      List.filter (fun c -> not (List.exists (Case.equal c) base_cases)) cases
    in
    let faults = Machine.faults_logged outcome.Runner.env.Env.machine in
    ({ testcase = base.Campaign.co_name; masked_cases; spurious_cases }, faults)

(* One parallel task = one test case: the clean baseline plus every
   faulted rerun, evaluated back to back on the same domain so all of
   them fork from the snapshot the first run captured. *)
type case_eval = {
  ce_base : Campaign.case_outcome;
  ce_units : (unit_diff * int) array;  (* one per plan, in plan order *)
}

let eval_case ?snapshots ?wave config plan_list tc =
  let run = Runner.run ?snapshots ?wave config tc in
  let base =
    Campaign.outcome_of_run ~config run
      (Checker.check run.Runner.log run.Runner.tracker)
  in
  (* Cycles the clean run spent past the fork point.  The injector
     fires a fault once the cycle count {e relative to arming} (= the
     fork point) reaches its window start, so a plan whose every window
     opens strictly after this span can never fire: the faulted run is
     instruction-for-instruction the clean run. *)
  let span = run.Runner.cycles - run.Runner.fork_cycle in
  (* Span pruning and the early stop ride with the snapshot engine: a
     plan that can never fire, or one spent without a trace, diffs to
     the baseline verdict with zero faults applied, exactly what
     executing it to the end would produce.  The replay path
     ([snapshots = None]) still runs every unit to the end — it is the
     oracle the differential suite diffs the engine's path against. *)
  let prune = Option.is_some snapshots in
  let units =
    List.map
      (fun plan ->
        if prune && plan_never_fires plan ~span then clean_unit base
        else eval_unit ?snapshots ~stop_when_inert:prune config (plan, tc, base))
      plan_list
  in
  { ce_base = base; ce_units = Array.of_list units }

let unit_outcome d =
  if d.masked_cases <> [] then Masked
  else if d.spurious_cases <> [] then Spurious
  else Stable

(* Observability handles, registered once per run from the orchestrating
   domain; [None] when the sink is off.  Outcome counters are registered
   in a fixed order (stable, spurious, masked) so the exposition output
   is deterministic. *)
type instruments = {
  i_units : Obs.Metrics.counter;
  i_faults : Obs.Metrics.counter;
  i_stable : Obs.Metrics.counter;
  i_spurious : Obs.Metrics.counter;
  i_masked : Obs.Metrics.counter;
}

let instruments obs =
  match Obs.metrics obs with
  | None -> None
  | Some m ->
    let outcome_counter o =
      Obs.Metrics.counter m
        ~labels:[ ("outcome", outcome_to_string o) ]
        ~help:"Faulted (plan, test case) units per verdict-diff outcome."
        "teesec_inject_unit_outcomes_total"
    in
    Some
      {
        i_units =
          Obs.Metrics.counter m ~help:"Faulted (plan, test case) units executed."
            "teesec_inject_units_total";
        i_faults =
          Obs.Metrics.counter m
            ~help:"Fault events actually applied across all units."
            "teesec_inject_faults_applied_total";
        i_stable = outcome_counter Stable;
        i_spurious = outcome_counter Spurious;
        i_masked = outcome_counter Masked;
      }

(* Everything after the per-case evaluations is a pure, sequential fold
   over [evals] in corpus order — shared by [run] and by the campaign
   service (lib/serve), whose daemon concatenates worker-computed
   [case_eval]s shard by shard and must reproduce [run]'s result
   byte for byte.  The clean baselines fold exactly as a campaign's
   outcomes do. *)
let aggregate_with ins ?(progress = fun _ _ _ -> ()) ~obs ~seed ~plan_list
    config evals =
  let clean = Campaign.aggregate config (List.map (fun e -> e.ce_base) evals) in
  let per_testcase = List.length evals in
  let total_units = List.length plan_list * per_testcase in
  (* Units are reported plan-major: plan [j]'s units are every test
     case's [j]th. *)
  let plan_results =
    List.mapi
      (fun j plan ->
        let units = List.map (fun e -> e.ce_units.(j)) evals in
        List.iteri
          (fun k ((d : unit_diff), faults) ->
            let outcome = unit_outcome d in
            progress
              ((j * per_testcase) + k + 1)
              total_units
              (Printf.sprintf "plan %d x %s: %s" j d.testcase
                 (outcome_to_string outcome));
            Option.iter
              (fun ins ->
                Obs.Metrics.inc ins.i_units;
                Obs.Metrics.inc ~by:faults ins.i_faults;
                Obs.Metrics.inc
                  (match outcome with
                  | Stable -> ins.i_stable
                  | Spurious -> ins.i_spurious
                  | Masked -> ins.i_masked))
              ins)
          units;
        let diffs = List.map fst units in
        {
          plan;
          outcome = List.fold_left (fun o d -> worst o (unit_outcome d)) Stable diffs;
          diffs;
          faults_applied = List.fold_left (fun n (_, f) -> n + f) 0 units;
        })
      plan_list
  in
  let plan_totals =
    List.fold_left (fun c p -> count_outcome c p.outcome) zero_counts plan_results
  in
  let unit_totals =
    List.fold_left
      (fun c p ->
        List.fold_left (fun c d -> count_outcome c (unit_outcome d)) c p.diffs)
      zero_counts plan_results
  in
  (* Attribute each plan's outcome to every fault model (and structure)
     the plan contains — a plan with several faults counts towards each. *)
  let aggregate key_of keys =
    List.filter_map
      (fun key ->
        let counts =
          List.fold_left
            (fun c p ->
              if
                List.exists
                  (fun f -> key_of f.Fault_plan.model = Some key)
                  p.plan.Fault_plan.faults
              then count_outcome c p.outcome
              else c)
            zero_counts plan_results
        in
        if counts = zero_counts then None else Some (key, counts))
      keys
  in
  let by_model = aggregate (fun m -> Some m) Fault_model.vocabulary in
  let by_structure = aggregate Fault_model.structure_of Structure.all in
  Obs.gc_sample obs ~phase:"inject";
  {
    config;
    seed;
    testcases = per_testcase;
    baseline_found = clean.Campaign.found;
    baseline_matches_paper = Campaign.matches_paper clean;
    baseline_residue = clean.Campaign.residue_warnings;
    plan_results;
    plan_totals;
    unit_totals;
    by_model;
    by_structure;
    waves = clean.Campaign.waves;
    provenance = clean.Campaign.provenance;
  }

let aggregate ?progress ?(obs = Obs.noop) ~seed ~plan_list config evals =
  aggregate_with (instruments obs) ?progress ~obs ~seed ~plan_list config evals

let run ?progress ?(jobs = 1) ?(obs = Obs.noop) ?snapshots ?wave ~seed ~plans
    config testcases =
  (* Instruments are registered before any worker domain runs, so
     registration order (and the exposition output) is deterministic. *)
  let ins = instruments obs in
  let plan_list = Fault_plan.sample ~seed ~count:plans in
  (* One task per test case: baseline plus every faulted rerun, so the
     reruns fork from the snapshot the baseline run captured.  Results
     are merged sequentially in corpus order, then read plan by plan,
     so the report is identical for every job count (and with or
     without the snapshot engine). *)
  let evals =
    Obs.span obs "inject/cases" (fun () ->
        Parallel.Pool.parmap ~obs ~jobs
          (eval_case ?snapshots ?wave config plan_list)
          testcases)
  in
  aggregate_with ins ?progress ~obs ~seed ~plan_list config evals
