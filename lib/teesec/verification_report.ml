open! Import

let generate ~full_corpus configs =
  let buf = Buffer.create 16384 in
  let fmt = Format.formatter_of_buffer buf in
  let line s = Format.fprintf fmt "%s@." s in
  let verbatim body =
    line "```";
    Format.fprintf fmt "%s" body;
    line "```";
    line ""
  in
  line "# TEESec verification report";
  line "";
  Format.fprintf fmt
    "Designs under test: %s.  Corpus: %s.  All results below are measured on \
     this run; 'paper' columns refer to ISCA 2023 Table 3/4.@.@."
    (String.concat ", " (List.map (fun c -> c.Config.name) configs))
    (if full_corpus then "full (585 test cases)"
     else "representative slice (2 per access path)");

  line "## Verification plans";
  line "";
  List.iter
    (fun config ->
      let plan = Plan.build config in
      Format.fprintf fmt
        "- **%s**: %d storage elements (%d state bits), %d access paths, %d TEE \
         API entry points.@."
        config.Config.name
        (Plan.storage_element_count plan)
        (Plan.total_state_bits plan)
        (List.length plan.Plan.paths)
        (List.length plan.Plan.tee_api))
    configs;
  line "";

  line "## Component automation (Table 1)";
  line "";
  verbatim (Tables.table1 ());

  line "## Gadget inventory";
  line "";
  verbatim (Tables.table2 ());

  line "## Leakage campaign (Table 3)";
  line "";
  let testcases =
    if full_corpus then Fuzzer.corpus () else Mitigation_eval.slice ()
  in
  let campaign_results = List.map (fun c -> Campaign.run c testcases) configs in
  verbatim (Tables.table3 campaign_results);
  List.iter
    (fun (r : Campaign.result) ->
      Format.fprintf fmt "- %s: %s.@." r.Campaign.config.Config.name
        (if Campaign.matches_paper r then "matches the paper's verdicts"
         else
           "DIFFERS from the paper: "
           ^ String.concat ", "
               (List.map
                  (fun (c, e, g) ->
                    Printf.sprintf "%s expected %b measured %b" (Case.to_string c) e g)
                  (Campaign.mismatches r))))
    campaign_results;
  line "";

  line "## Mitigation matrix (Table 4)";
  line "";
  let mitigation_results = List.map Mitigation_eval.evaluate configs in
  verbatim (Tables.table4 mitigation_results);

  line "## Mitigation performance ablation";
  line "";
  List.iter
    (fun workload ->
      verbatim
        (Overhead.table (List.map (Overhead.evaluate ~workload) configs)))
    [ Overhead.Mixed; Overhead.Switch_heavy; Overhead.Compute_heavy ];

  line "## Coverage";
  line "";
  List.iter
    (fun config ->
      verbatim
        (Format.asprintf "%a" Coverage.pp (Coverage.measure config testcases)))
    configs;

  line "## Recommended countermeasures";
  line "";
  List.iter
    (fun config ->
      verbatim
        (Format.asprintf "%a" Recommend.pp_result (Recommend.evaluate config)))
    configs;

  line "## Case studies (paper figures 2-7)";
  line "";
  List.iter
    (fun config ->
      List.iter
        (fun (_, trace) ->
          Format.fprintf fmt "### %s@.@." trace.Scenarios.title;
          List.iter
            (fun (k, v) -> Format.fprintf fmt "- %s: %s@." k v)
            trace.Scenarios.observations;
          line "")
        (Scenarios.all config))
    configs;

  line "## uBTB partial-tag width sweep (Figure 7 ablation)";
  line "";
  List.iter
    (fun config ->
      Format.fprintf fmt "%s:@.@." config.Config.name;
      verbatim
        (String.concat ""
           (List.map
              (fun (bits, aliases, distinguishable) ->
                Printf.sprintf
                  "tag=%2d bits: PCs alias=%b, probe distinguishes enclave branch=%b\n"
                  bits aliases distinguishable)
              (Scenarios.btb_tag_sweep config
                 ~tag_bits:[ 12; 14; 16; 17; 18; 20 ]))))
    configs;

  Format.pp_print_flush fmt ();
  Buffer.contents buf
