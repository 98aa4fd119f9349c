open! Import

type case_stats = {
  case : Case.id;
  found : bool;
  testcases : int;
  first_testcase : string option;
}

type result = {
  config : Config.t;
  total_cases : int;
  stats : (Case.id * case_stats) list;
  found : Case.id list;
  residue_warnings : int;
  total_cycles : int;
  total_log_records : int;
  waves : (string * string) list;
  provenance : Provenance.t list;
}

(* Everything the merge phase needs from one test case.  Computed
   in-domain (including the summary line), so the merge is a cheap
   deterministic fold.  [outcome_of_run] is its one builder. *)
type case_outcome = {
  co_name : string;
  co_cases : Case.id list;
  co_residue : int;
  co_cycles : int;
  co_log_records : int;
  co_summary : string;
  co_wave : string;
  co_provenance : Provenance.t list;
      (* Derived from the log only, so byte-identical across wave
         settings; classified findings only (residue warnings are a
         count, not a chain). *)
}

(* Observability handles, registered once per run from the orchestrating
   domain (stable registration order); [None] when the sink is off. *)
type instruments = {
  i_cases : Obs.Metrics.counter;
  i_findings : Obs.Metrics.counter;
  i_runner : Obs.Metrics.histogram;
  i_checker : Obs.Metrics.histogram;
  i_case_cycles : Obs.Metrics.histogram;
}

let instruments obs =
  match Obs.metrics obs with
  | None -> None
  | Some m ->
    Some
      {
        i_cases =
          Obs.Metrics.counter m ~help:"Test cases executed by the campaign."
            "teesec_campaign_cases_total";
        i_findings =
          Obs.Metrics.counter m
            ~help:"Checker findings carrying a Table 3 case."
            "teesec_campaign_findings_total";
        i_runner =
          Obs.Metrics.histogram m ~help:"Wall time of one simulated test case."
            "teesec_runner_duration_seconds";
        i_checker =
          Obs.Metrics.histogram m
            ~labels:[ ("impl", "indexed") ]
            ~help:"Wall time of one checker pass over a log."
            "teesec_checker_duration_seconds";
        i_case_cycles =
          Obs.Metrics.histogram m
            ~buckets:[ 100.; 300.; 1000.; 3000.; 10000.; 30000.; 100000. ]
            ~help:"Simulated cycles per test case."
            "teesec_campaign_case_cycles";
      }

let outcome_of_run ~config (run : Runner.outcome) findings =
  let tc = run.Runner.testcase in
  {
    co_name = Testcase.name tc;
    co_cases = Checker.distinct_cases findings;
    co_residue = Checker.residue_warnings findings;
    co_cycles = run.Runner.cycles;
    co_log_records = run.Runner.log_records;
    co_summary = Report.summary_line tc findings;
    co_wave = run.Runner.wave;
    co_provenance =
      Provenance.of_outcome ~config run
        (List.filter (fun f -> f.Checker.case <> None) findings);
  }

let eval_case_with obs ins ?snapshots ?wave config tc =
  let run, _ =
    Obs.timed obs
      ?histogram:(Option.map (fun i -> i.i_runner) ins)
      "campaign/runner"
      (fun () -> Runner.run ?snapshots ?wave config tc)
  in
  let findings, _ =
    Obs.timed obs
      ?histogram:(Option.map (fun i -> i.i_checker) ins)
      "campaign/checker"
      (fun () -> Checker.check run.Runner.log run.Runner.tracker)
  in
  outcome_of_run ~config run findings

(* [eval_case] is the public per-case evaluator: the serve layer runs it
   shard by shard in worker processes and merges the outcomes with
   {!aggregate}, so the split must produce exactly what [run] produces. *)
let eval_case ?(obs = Obs.noop) ?snapshots ?wave config tc =
  eval_case_with obs (instruments obs) ?snapshots ?wave config tc

(* The merge accumulator shared by [run] (which folds streamingly) and
   [aggregate] (which folds a prepared outcome list).  Merging is always
   sequential and id-ordered, so the aggregate (and the order of
   [progress] calls) is identical for every job count — and identical
   whether the outcomes were computed here or shipped in from worker
   processes. *)
type accum = {
  counts : (Case.id, int) Hashtbl.t;
  firsts : (Case.id, string) Hashtbl.t;
  mutable a_residue : int;
  mutable a_cycles : int;
  mutable a_log_records : int;
  mutable a_waves : (string * string) list;  (* reversed *)
  mutable a_provenance : Provenance.t list;  (* reversed *)
}

let accum_create () =
  {
    counts = Hashtbl.create 16;
    firsts = Hashtbl.create 16;
    a_residue = 0;
    a_cycles = 0;
    a_log_records = 0;
    a_waves = [];
    a_provenance = [];
  }

let accum_add ~ins ~progress ~total acc i co =
  acc.a_residue <- acc.a_residue + co.co_residue;
  acc.a_cycles <- acc.a_cycles + co.co_cycles;
  acc.a_log_records <- acc.a_log_records + co.co_log_records;
  if co.co_wave <> "" then acc.a_waves <- (co.co_name, co.co_wave) :: acc.a_waves;
  List.iter (fun p -> acc.a_provenance <- p :: acc.a_provenance) co.co_provenance;
  Option.iter
    (fun ins ->
      Obs.Metrics.inc ins.i_cases;
      Obs.Metrics.inc ~by:(List.length co.co_cases) ins.i_findings;
      Obs.Metrics.observe ins.i_case_cycles (float_of_int co.co_cycles))
    ins;
  List.iter
    (fun case ->
      Hashtbl.replace acc.counts case
        (1 + Option.value (Hashtbl.find_opt acc.counts case) ~default:0);
      if not (Hashtbl.mem acc.firsts case) then
        Hashtbl.replace acc.firsts case co.co_name)
    co.co_cases;
  progress (i + 1) total co.co_summary

let accum_result config ~total acc =
  let stats =
    List.map
      (fun case ->
        let testcases =
          Option.value (Hashtbl.find_opt acc.counts case) ~default:0
        in
        ( case,
          {
            case;
            found = testcases > 0;
            testcases;
            first_testcase = Hashtbl.find_opt acc.firsts case;
          } ))
      Case.all
  in
  {
    config;
    total_cases = total;
    stats;
    found = List.filter (fun c -> Hashtbl.mem acc.counts c) Case.all;
    residue_warnings = acc.a_residue;
    total_cycles = acc.a_cycles;
    total_log_records = acc.a_log_records;
    waves = List.rev acc.a_waves;
    provenance = List.rev acc.a_provenance;
  }

let aggregate ?(progress = fun _ _ _ -> ()) ?(obs = Obs.noop) config outcomes =
  let ins = instruments obs in
  let total = List.length outcomes in
  let acc = accum_create () in
  List.iteri (accum_add ~ins ~progress ~total acc) outcomes;
  accum_result config ~total acc

let run ?(progress = fun _ _ _ -> ()) ?(jobs = 1) ?(obs = Obs.noop) ?snapshots
    ?wave config testcases =
  let ins = instruments obs in
  let acc = accum_create () in
  let total = List.length testcases in
  let merge i co = accum_add ~ins ~progress ~total acc i co in
  if jobs <= 1 then
    (* Sequential path: [progress] streams as each test case finishes. *)
    Obs.span obs "campaign/cases" (fun () ->
        List.iteri
          (fun i tc ->
            merge i (eval_case_with obs ins ?snapshots ?wave config tc))
          testcases)
  else begin
    (* Test cases share no mutable state (each [Runner.run] builds its
       own [Env]), so they fan out across domains; [progress] then fires
       during the ordered merge. *)
    let outcomes =
      Obs.span obs "campaign/execute" (fun () ->
          Parallel.Pool.parmap ~obs ~jobs
            (eval_case_with obs ins ?snapshots ?wave config)
            testcases)
    in
    Obs.span obs "campaign/merge" (fun () -> List.iteri merge outcomes)
  end;
  Obs.gc_sample obs ~phase:"campaign";
  accum_result config ~total acc

let run_full ?progress ?jobs ?obs ?snapshots ?wave config =
  run ?progress ?jobs ?obs ?snapshots ?wave config (Fuzzer.corpus ())

let mismatches result =
  List.filter_map
    (fun (case, (s : case_stats)) ->
      let expected = Case.expected case result.config.Config.kind in
      if expected <> s.found then Some (case, expected, s.found) else None)
    result.stats

let matches_paper result = mismatches result = []

let pp_result fmt result =
  Format.fprintf fmt "Campaign on %s: %d test cases, %d cycles simulated@."
    result.config.Config.name result.total_cases result.total_cycles;
  List.iter
    (fun (case, (s : case_stats)) ->
      Format.fprintf fmt "  %-3s %-70s %s (%d test cases%s)@." (Case.to_string case)
        (Case.description case)
        (if s.found then "FOUND" else "-")
        s.testcases
        (match s.first_testcase with Some n -> ", first: " ^ n | None -> ""))
    result.stats;
  Format.fprintf fmt "  residue warnings: %d@." result.residue_warnings;
  Format.fprintf fmt "  matches paper Table 3: %b@." (matches_paper result)
