open! Import

let pct part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let pp_counts fmt (c : Inject_campaign.counts) =
  Format.fprintf fmt "%d stable / %d spurious / %d masked" c.Inject_campaign.stable
    c.Inject_campaign.spurious c.Inject_campaign.masked

let pp fmt (r : Inject_campaign.result) =
  let plans = List.length r.Inject_campaign.plan_results in
  Format.fprintf fmt
    "Checker-robustness campaign on %s: %d fault plans x %d test cases (seed %s)@."
    r.Inject_campaign.config.Config.name plans r.Inject_campaign.testcases
    (Word.to_hex r.Inject_campaign.seed);
  Format.fprintf fmt "  clean baseline: %s; matches paper Table 3: %b@."
    (String.concat " "
       (List.map Case.to_string r.Inject_campaign.baseline_found))
    r.Inject_campaign.baseline_matches_paper;
  Format.fprintf fmt "  plan outcomes: %a@." pp_counts r.Inject_campaign.plan_totals;
  Format.fprintf fmt "  unit outcomes: %a@." pp_counts r.Inject_campaign.unit_totals;
  Format.fprintf fmt "  by fault model:@.";
  List.iter
    (fun (m, c) ->
      Format.fprintf fmt "    %-32s %a@." (Fault_model.to_string m) pp_counts c)
    r.Inject_campaign.by_model;
  Format.fprintf fmt "  by structure:@.";
  List.iter
    (fun (s, c) ->
      Format.fprintf fmt "    %-32s %a@." (Structure.to_string s) pp_counts c)
    r.Inject_campaign.by_structure;
  let interesting =
    List.filter
      (fun (p : Inject_campaign.plan_result) -> p.outcome <> Inject_campaign.Stable)
      r.Inject_campaign.plan_results
  in
  if interesting = [] then
    Format.fprintf fmt "  every plan left the checker verdicts unchanged@."
  else begin
    Format.fprintf fmt "  non-stable plans:@.";
    List.iter
      (fun (p : Inject_campaign.plan_result) ->
        Format.fprintf fmt "    %a -> %s@." Fault_plan.pp p.plan
          (Inject_campaign.outcome_to_string p.outcome);
        List.iter
          (fun (d : Inject_campaign.unit_diff) ->
            if d.masked_cases <> [] || d.spurious_cases <> [] then
              Format.fprintf fmt "      %s: masked [%s] spurious [%s]@." d.testcase
                (String.concat " " (List.map Case.to_string d.masked_cases))
                (String.concat " " (List.map Case.to_string d.spurious_cases)))
          p.diffs)
      interesting
  end;
  Format.fprintf fmt "  checker stability: %.1f%% of plans, %.1f%% of units@."
    (pct r.Inject_campaign.plan_totals.stable plans)
    (pct r.Inject_campaign.unit_totals.stable (plans * r.Inject_campaign.testcases))

(* {2 JSON}

   Deliberately contains no wall time or host detail: the acceptance
   criterion is that reports for the same seed are byte-identical across
   job counts and reruns. *)

let json_cases cases = Json.list (fun c -> Json.Str (Case.to_string c)) cases

let json_counts (c : Inject_campaign.counts) =
  Json.Obj
    [
      ("stable", Json.int c.Inject_campaign.stable);
      ("spurious", Json.int c.Inject_campaign.spurious);
      ("masked", Json.int c.Inject_campaign.masked);
    ]

let json_fault (f : Fault_plan.fault) =
  Json.Obj
    [
      ("model", Str (Fault_model.to_string f.model));
      ("window_start", Json.int f.window_start);
      ("window_len", Json.int f.window_len);
      ("select", Json.int f.select);
      ("bit", Json.int f.bit);
    ]

let json_diff (d : Inject_campaign.unit_diff) =
  Json.Obj
    [
      ("testcase", Str d.testcase);
      ("masked", json_cases d.masked_cases);
      ("spurious", json_cases d.spurious_cases);
    ]

let json_plan_result (p : Inject_campaign.plan_result) =
  let non_stable =
    List.filter
      (fun (d : Inject_campaign.unit_diff) ->
        d.masked_cases <> [] || d.spurious_cases <> [])
      p.diffs
  in
  Json.Obj
    [
      ("id", Json.int p.plan.Fault_plan.id);
      ("plan_seed", Str (Word.to_hex p.plan.Fault_plan.plan_seed));
      ("outcome", Str (Inject_campaign.outcome_to_string p.outcome));
      ("faults_applied", Json.int p.faults_applied);
      ("faults", Json.list json_fault p.plan.Fault_plan.faults);
      ("diffs", Json.list json_diff non_stable);
    ]

let to_json_string (r : Inject_campaign.result) =
  let by key name (x, c) =
    Json.Obj [ (key, Json.Str (name x)); ("counts", json_counts c) ]
  in
  Json.to_document
    (Obj
       [
         ("core", Str r.Inject_campaign.config.Config.name);
         ("seed", Str (Word.to_hex r.Inject_campaign.seed));
         ("plans", Json.int (List.length r.Inject_campaign.plan_results));
         ("testcases", Json.int r.Inject_campaign.testcases);
         ( "baseline",
           Obj
             [
               ("found", json_cases r.Inject_campaign.baseline_found);
               ("matches_paper", Bool r.Inject_campaign.baseline_matches_paper);
               ( "residue_warnings",
                 Json.int r.Inject_campaign.baseline_residue );
             ] );
         ("plan_totals", json_counts r.Inject_campaign.plan_totals);
         ("unit_totals", json_counts r.Inject_campaign.unit_totals);
         ( "by_model",
           Json.list (by "model" Fault_model.to_string)
             r.Inject_campaign.by_model );
         ( "by_structure",
           Json.list (by "structure" Structure.to_string)
             r.Inject_campaign.by_structure );
         ( "plan_results",
           Json.list json_plan_result r.Inject_campaign.plan_results );
         ( "provenance",
           Json.list Provenance.to_value r.Inject_campaign.provenance );
       ])

let save_json ~path r = Obs.write_file ~path (to_json_string r)
