open! Import

let with_buffer f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let rule fmt width = Format.fprintf fmt "%s@." (String.make width '-')

let table1 () =
  with_buffer (fun fmt ->
      Format.fprintf fmt "Table 1: TEESec components and automation status@.";
      rule fmt 78;
      Format.fprintf fmt "%-24s %-42s %s@." "Component" "Step" "Status";
      rule fmt 78;
      List.iter
        (fun (component, step, automation) ->
          Format.fprintf fmt "%-24s %-42s %s@." component step
            (Plan.automation_to_string automation))
        Plan.automation_table;
      rule fmt 78)

let table2 () =
  with_buffer (fun fmt ->
      Format.fprintf fmt "Table 2: gadget inventory and generated test cases@.";
      rule fmt 78;
      let setup = List.length Gadget_library.setup_gadgets in
      let helper = List.length Gadget_library.helper_gadgets in
      let access = List.length Gadget_library.access_gadgets in
      let total = Fuzzer.total_cases () in
      Format.fprintf fmt "%-22s %8s %8s@." "" "paper" "ours";
      Format.fprintf fmt "%-22s %8d %8d@." "Setup gadgets" 8 setup;
      Format.fprintf fmt "%-22s %8d %8d@." "Helper gadgets" 12 helper;
      Format.fprintf fmt "%-22s %8d %8d@." "Access gadgets" 15 access;
      Format.fprintf fmt "%-22s %8d %8d@." "Total test cases" 585 total;
      Format.fprintf fmt "@.Test cases per access path:@.";
      List.iter
        (fun (path, n) ->
          Format.fprintf fmt "  %-28s %4d@." (Access_path.to_string path) n)
        (Fuzzer.count_per_path ());
      rule fmt 78)

let verdict_cell ~expected ~found =
  match (expected, found) with
  | true, true -> "X (matches)"
  | false, false -> "- (matches)"
  | true, false -> "MISSING (paper: X)"
  | false, true -> "EXTRA (paper: -)"

let table3 results =
  with_buffer (fun fmt ->
      Format.fprintf fmt "Table 3: leakage cases found, paper vs measured@.";
      rule fmt 110;
      Format.fprintf fmt "%-4s %-62s" "Case" "Description";
      List.iter
        (fun (r : Campaign.result) ->
          Format.fprintf fmt " %-20s"
            (Config.core_kind_to_string r.Campaign.config.Config.kind))
        results;
      Format.fprintf fmt "@.";
      rule fmt 110;
      List.iter
        (fun case ->
          Format.fprintf fmt "%-4s %-62s" (Case.to_string case)
            (Case.description case);
          List.iter
            (fun (r : Campaign.result) ->
              let found =
                List.exists (Case.equal case) r.Campaign.found
              in
              let expected =
                Case.expected case r.Campaign.config.Config.kind
              in
              Format.fprintf fmt " %-20s" (verdict_cell ~expected ~found))
            results;
          Format.fprintf fmt "@.")
        Case.all;
      rule fmt 110;
      List.iter
        (fun (r : Campaign.result) ->
          Format.fprintf fmt
            "%s: %d/%d cases match the paper; %d test cases run; %d residue warnings@."
            (Config.core_kind_to_string r.Campaign.config.Config.kind)
            (List.length Case.all - List.length (Campaign.mismatches r))
            (List.length Case.all) r.Campaign.total_cases r.Campaign.residue_warnings)
        results)

let table4 results =
  with_buffer (fun fmt ->
      Format.fprintf fmt
        "Table 4: mitigation effectiveness (paper expectation / measured per core)@.";
      rule fmt 118;
      Format.fprintf fmt "%-6s" "Case";
      List.iter
        (fun m -> Format.fprintf fmt " %-17s" (Mitigation.to_string m))
        (Mitigation.all @ Mitigation.extensions);
      Format.fprintf fmt "@.";
      rule fmt 118;
      List.iter
        (fun case ->
          Format.fprintf fmt "%-6s" (Case.to_string case);
          List.iter
            (fun mitigation ->
              let paper =
                match Mitigation_eval.paper_expectation ~case ~mitigation with
                | `Effective -> "X"
                | `Ineffective -> "-"
                | `Effective_xs_only -> "X*"
              in
              let measured =
                String.concat "/"
                  (List.map
                     (fun (r : Mitigation_eval.result) ->
                       match Mitigation_eval.effective r ~case ~mitigation with
                       | Some true -> "X"
                       | Some false ->
                         if
                           List.exists (Case.equal case)
                             r.Mitigation_eval.baseline_found
                         then "-"
                         else "."
                       | None -> "?")
                     results)
              in
              Format.fprintf fmt " %-17s" (Printf.sprintf "%s %s" paper measured))
            (Mitigation.all @ Mitigation.extensions);
          Format.fprintf fmt "@.")
        Case.all;
      rule fmt 118;
      Format.fprintf fmt
        "Cell format: <paper> <measured-%s>.  X = mitigated, - = not mitigated, . = \
         case absent at baseline on that core, X* = paper marks it effective only on \
         XiangShan.  tag-bpu-hpc is the tagging countermeasure of the paper's \
         section 8, implemented and evaluated as an extension.@."
        (String.concat "/"
           (List.map
              (fun (r : Mitigation_eval.result) ->
                Config.core_kind_to_string r.Mitigation_eval.config.Config.kind)
              results)))

let table3_csv results =
  let header =
    "case"
    :: List.concat_map
         (fun (r : Campaign.result) ->
           let core = Config.core_kind_to_string r.Campaign.config.Config.kind in
           [ core ^ "_paper"; core ^ "_measured"; core ^ "_testcases" ])
         results
  in
  let rows =
    List.map
      (fun case ->
        Case.to_string case
        :: List.concat_map
             (fun (r : Campaign.result) ->
               let stats = List.assoc case r.Campaign.stats in
               [
                 string_of_bool (Case.expected case r.Campaign.config.Config.kind);
                 string_of_bool stats.Campaign.found;
                 string_of_int stats.Campaign.testcases;
               ])
             results)
      Case.all
  in
  String.concat "\n" (List.map (String.concat ",") (header :: rows)) ^ "\n"
