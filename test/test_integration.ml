(* End-to-end integration tests: every paper leakage case is asserted
   present or absent on each core exactly as Table 3 reports, the
   mitigation knobs behave as Table 4 expects, and the figure scenarios
   reproduce their observations. *)

open Teesec
module Config = Uarch.Config
module Mitigation = Uarch.Mitigation
module Machine = Uarch.Machine

let cases = Alcotest.testable Case.pp Case.equal

let run_testcase config path params =
  let tc = Assembler.assemble ~id:0 path ~params in
  let outcome = Runner.run config tc in
  Checker.check outcome.Runner.log outcome.Runner.tracker

let found config path params case =
  List.exists (Case.equal case) (Checker.distinct_cases (run_testcase config path params))

(* One test per (case, core): the canonical test case for the case's
   access path must surface it exactly when the paper says so. *)
let canonical_path = function
  | Case.D1 -> (Access_path.Imp_acc_pref, Params.make ~offset:56 ~width:8 ())
  | Case.D2 -> (Access_path.Imp_acc_ptw_root, Params.make ())
  | Case.D3 -> (Access_path.Imp_acc_destroy_memset, Params.make ())
  | Case.D4 -> (Access_path.Exp_acc_enc_l1, Params.make ())
  | Case.D5 -> (Access_path.Exp_acc_sm, Params.make ())
  | Case.D6 -> (Access_path.Exp_acc_cross_enclave, Params.make ())
  | Case.D7 -> (Access_path.Exp_acc_host_from_enclave, Params.make ())
  | Case.D8 -> (Access_path.Exp_acc_enc_stb, Params.make ())
  | Case.M1 -> (Access_path.Meta_hpc, Params.make ())
  | Case.M2 -> (Access_path.Meta_btb, Params.make ())

let per_case_tests config =
  List.map
    (fun case ->
      let name =
        Printf.sprintf "%s %s" (Case.to_string case)
          (if Case.expected case config.Config.kind then "found" else "absent")
      in
      Alcotest.test_case name `Quick (fun () ->
          let path, params = canonical_path case in
          Alcotest.(check bool)
            (Case.to_string case ^ " on " ^ config.Config.name)
            (Case.expected case config.Config.kind)
            (found config path params case)))
    Case.all

(* {1 Campaign} *)

let test_campaign_slice_matches_paper config () =
  let result = Campaign.run config (Mitigation_eval.slice ()) in
  (match Campaign.mismatches result with
  | [] -> ()
  | ms ->
    Alcotest.failf "mismatches: %s"
      (String.concat ", "
         (List.map
            (fun (c, expected, got) ->
              Printf.sprintf "%s expected %b got %b" (Case.to_string c) expected got)
            ms)));
  Alcotest.(check bool) "matches paper" true (Campaign.matches_paper result)

let test_campaign_deterministic () =
  let slice = Mitigation_eval.slice () in
  let r1 = Campaign.run Config.boom slice in
  let r2 = Campaign.run Config.boom slice in
  Alcotest.(check (list cases)) "same findings" r1.Campaign.found r2.Campaign.found;
  Alcotest.(check int) "same residue count" r1.Campaign.residue_warnings
    r2.Campaign.residue_warnings;
  Alcotest.(check int) "same cycle count" r1.Campaign.total_cycles r2.Campaign.total_cycles

(* Campaign, inject baselines and fuzz observations fold the same
   per-case outcome, so over the same test cases they must agree: a
   pipeline that derived its verdicts again would drift from the
   others.  Tapped engines, so the wave streams are compared too. *)
let test_pipelines_agree () =
  let slice = Mitigation_eval.slice () in
  List.iter
    (fun config ->
      let tapped () = Snapshot.create ~wave:true config in
      let campaign cases = Campaign.run ~snapshots:(tapped ()) config cases in
      let c = campaign slice in
      let i =
        Inject.Inject_campaign.run ~snapshots:(tapped ()) ~seed:0x5EEDL ~plans:0
          config slice
      in
      let core = config.Config.name in
      Alcotest.(check (list cases)) (core ^ " inject found") c.Campaign.found
        i.Inject.Inject_campaign.baseline_found;
      Alcotest.(check int) (core ^ " inject residue warnings")
        c.Campaign.residue_warnings i.Inject.Inject_campaign.baseline_residue;
      Alcotest.(check bool) (core ^ " inject provenance") true
        (List.equal Provenance.equal c.Campaign.provenance
           i.Inject.Inject_campaign.provenance);
      Alcotest.(check bool) (core ^ " inject waves") true
        (c.Campaign.waves <> [] && c.Campaign.waves = i.Inject.Inject_campaign.waves);
      let f =
        Fuzz.Engine.run ~snapshots:(tapped ())
          { Fuzz.Engine.default with Fuzz.Engine.budget = 40; seed = 42L }
          config
      in
      let c = campaign f.Fuzz.Engine.executed_cases in
      Alcotest.(check int) (core ^ " fuzz residue warnings")
        c.Campaign.residue_warnings f.Fuzz.Engine.residue_warnings;
      Alcotest.(check int) (core ^ " fuzz cycles") c.Campaign.total_cycles
        f.Fuzz.Engine.total_cycles)
    [ Config.boom; Config.xiangshan ]

let test_negative_paths_clean config () =
  (* Store-to-enclave and legitimate page walks must not produce
     numbered findings. *)
  List.iter
    (fun path ->
      Alcotest.(check (list cases))
        (Access_path.to_string path ^ " finds nothing")
        []
        (Checker.distinct_cases (run_testcase config path (Params.make ()))))
    [ Access_path.Exp_store_enc; Access_path.Imp_acc_ptw_legit ]

(* {1 Mitigations (Table 4 spot checks)} *)

let found_under config mitigation case =
  let path, params = canonical_path case in
  found (Config.with_mitigations config [ mitigation ]) path params case

let test_mitigations_boom () =
  (* Clear-illegal-data-returns kills D2 and D4 on BOOM. *)
  Alcotest.(check bool) "clear-illegal stops D4" false
    (found_under Config.boom Mitigation.Clear_illegal_data_returns Case.D4);
  Alcotest.(check bool) "clear-illegal stops D2" false
    (found_under Config.boom Mitigation.Clear_illegal_data_returns Case.D2);
  (* Flushing cannot stop the prefetcher (D1 survives everything). *)
  Alcotest.(check bool) "D1 survives flush-everything" true
    (found_under Config.boom Mitigation.Flush_everything Case.D1);
  (* The LFB flush removes the destroy residue. *)
  Alcotest.(check bool) "flush-lfb stops D3" false
    (found_under Config.boom Mitigation.Flush_lfb Case.D3);
  Alcotest.(check bool) "D3 present at baseline" true
    (found Config.boom Access_path.Imp_acc_destroy_memset (Params.make ()) Case.D3);
  (* BPU/HPC flush removes both metadata cases. *)
  Alcotest.(check bool) "flush-bpu-hpc stops M1" false
    (found_under Config.boom Mitigation.Flush_bpu_hpc Case.M1);
  Alcotest.(check bool) "flush-bpu-hpc stops M2" false
    (found_under Config.boom Mitigation.Flush_bpu_hpc Case.M2);
  (* Flushing the L1D does not help BOOM: the faulting miss still fills
     the LFB (the paper's X* footnote). *)
  Alcotest.(check bool) "flush-l1d insufficient on BOOM" true
    (found_under Config.boom Mitigation.Flush_l1d Case.D4)

let test_mitigations_xiangshan () =
  (* Flushing the L1D is sufficient on XiangShan thanks to the fake-hit
     miss path. *)
  Alcotest.(check bool) "flush-l1d stops D4 on XS" false
    (found_under Config.xiangshan Mitigation.Flush_l1d Case.D4);
  (* The store-buffer flush stops D8. *)
  Alcotest.(check bool) "flush-store-buffer stops D8" false
    (found_under Config.xiangshan Mitigation.Flush_store_buffer Case.D8);
  Alcotest.(check bool) "D8 present at baseline" true
    (found Config.xiangshan Access_path.Exp_acc_enc_stb (Params.make ()) Case.D8);
  Alcotest.(check bool) "clear-illegal stops D8 too" false
    (found_under Config.xiangshan Mitigation.Clear_illegal_data_returns Case.D8)

let test_tagging_extension () =
  (* Tag_bpu_hpc closes both metadata cases on both cores without
     touching the data cases. *)
  List.iter
    (fun base ->
      Alcotest.(check bool) "tagging stops M2" false
        (found_under base Mitigation.Tag_bpu_hpc Case.M2);
      Alcotest.(check bool) "tagging stops M1" false
        (found_under base Mitigation.Tag_bpu_hpc Case.M1);
      Alcotest.(check bool) "tagging leaves D4 untouched" true
        (found_under base Mitigation.Tag_bpu_hpc Case.D4))
    [ Config.boom; Config.xiangshan ]

let test_boom_v2_campaign () =
  (* The pre-SonicBOOM release shows the same findings as v3. *)
  let result = Campaign.run Config.boom_v2 (Mitigation_eval.slice ()) in
  Alcotest.(check bool) "BOOM v2.3 matches the paper's BOOM column" true
    (Campaign.matches_paper result)

let test_overhead_ablation () =
  let result = Overhead.evaluate ~rounds:8 Config.boom in
  Alcotest.(check bool) "baseline measured" true (result.Overhead.baseline_cycles > 0);
  let cycles_of label =
    match
      List.find_opt (fun m -> m.Overhead.label = label) result.Overhead.measurements
    with
    | Some m -> m.Overhead.cycles
    | None -> Alcotest.failf "missing measurement %s" label
  in
  Alcotest.(check bool) "flush-everything is the most expensive" true
    (cycles_of "flush-everything" > result.Overhead.baseline_cycles);
  Alcotest.(check bool) "flush-l1d costs cycles" true
    (cycles_of "flush-l1d" > result.Overhead.baseline_cycles);
  Alcotest.(check bool) "tagging is free" true
    (cycles_of "tag-bpu-hpc" = result.Overhead.baseline_cycles);
  Alcotest.(check bool) "clear-illegal is free on benign code" true
    (cycles_of "clear-illegal-data-returns" = result.Overhead.baseline_cycles)

let test_overhead_workloads () =
  (* Flushing hurts switch-heavy code more than compute-heavy code. *)
  let pct workload =
    let result = Overhead.evaluate ~workload ~rounds:8 Config.xiangshan in
    match
      List.find_opt (fun m -> m.Overhead.label = "flush-everything")
        result.Overhead.measurements
    with
    | Some m -> m.Overhead.overhead_pct
    | None -> Alcotest.fail "missing flush-everything"
  in
  Alcotest.(check bool) "switch-heavy pays more than compute-heavy" true
    (pct Overhead.Switch_heavy > pct Overhead.Compute_heavy)

let test_random_corpus () =
  let corpus = Fuzzer.random_corpus ~seed:0xF00DL ~count:120 in
  Alcotest.(check int) "requested size" 120 (List.length corpus);
  (* Deterministic in the seed. *)
  let names l = List.map Testcase.name l in
  Alcotest.(check (list string)) "deterministic"
    (names corpus)
    (names (Fuzzer.random_corpus ~seed:0xF00DL ~count:120));
  Alcotest.(check bool) "different seed differs" true
    (names corpus <> names (Fuzzer.random_corpus ~seed:0xBEEFL ~count:120));
  (* A modest random corpus still reproduces the Table 3 verdicts. *)
  let result = Campaign.run Config.xiangshan corpus in
  Alcotest.(check bool) "random corpus matches the paper on XS" true
    (Campaign.matches_paper result)

let test_program_trace () =
  let tc = Assembler.assemble ~id:0 Access_path.Meta_btb ~params:(Params.make ()) in
  let outcome = Runner.run Config.boom tc in
  let programs = Env.programs outcome.Runner.env in
  (* Prime (host), enclave workload, probe (host). *)
  Alcotest.(check int) "three fragments" 3 (List.length programs);
  (match programs with
  | (l1, _) :: (l2, _) :: (l3, _) :: _ ->
    Alcotest.(check string) "prime runs as host" "host-S" l1;
    Alcotest.(check string) "victim runs as enclave" "enclave-0" l2;
    Alcotest.(check string) "probe runs as host" "host-S" l3
  | _ -> Alcotest.fail "unexpected trace shape")

let test_recommendations () =
  let xs = Recommend.evaluate Config.xiangshan in
  let best_xs = Recommend.best xs in
  Alcotest.(check (list cases)) "XS: a 2-knob set closes everything" []
    best_xs.Recommend.residual;
  Alcotest.(check bool) "XS best is near-free" true
    (best_xs.Recommend.overhead_pct < 5.0);
  let boom = Recommend.evaluate Config.boom in
  let best_boom = Recommend.best boom in
  (* D1 survives every software/flush combination on BOOM. *)
  Alcotest.(check bool) "BOOM: D1 is irreducible" true
    (List.exists (Case.equal Case.D1) best_boom.Recommend.residual);
  List.iter
    (fun r ->
      Alcotest.(check bool) "D1 in every residual" true
        (List.exists (Case.equal Case.D1) r.Recommend.residual))
    boom.Recommend.ranked

let test_coverage () =
  List.iter
    (fun config ->
      let c = Coverage.measure config (Mitigation_eval.slice ()) in
      Alcotest.(check int) "all paths exercised" (List.length Access_path.all)
        c.Coverage.paths_covered;
      Alcotest.(check (float 0.01)) "100% path coverage" 100.0 c.Coverage.path_coverage_pct;
      Alcotest.(check (float 0.01)) "100% writable-structure coverage" 100.0
        c.Coverage.structure_coverage_pct;
      (* The prefetch origin appears exactly on the core that has one. *)
      Alcotest.(check bool) "prefetch origin iff prefetcher" config.Config.has_l1_prefetcher
        (List.mem Simlog.Log.Prefetch c.Coverage.origins_observed))
    [ Config.boom; Config.xiangshan ]

(* The coverage report of the slice, byte for byte: the structures and
   provenances are a projection of the edge walk ([Simlog.Edge.of_log]),
   so a change to either walk that moves them shows here. *)
let test_coverage_slice_text () =
  let per_path =
    String.concat ""
      (List.map
         (fun p -> Printf.sprintf "    %-28s %4d test case(s)\n" p 2)
         [ "Exp_Acc_Enc_L1"; "Exp_Acc_Enc_L2"; "Exp_Acc_Enc_Mem";
           "Exp_Acc_Enc_StB"; "Exp_Acc_Enc_Misaligned"; "Exp_Acc_SM";
           "Exp_Acc_Cross_Enclave"; "Exp_Acc_Host_From_Enclave";
           "Exp_Store_Enc"; "Imp_Acc_Pref"; "Imp_Acc_PTW_Root";
           "Imp_Acc_PTW_Legit"; "Imp_Acc_Destroy_Memset"; "Meta_HPC";
           "Meta_BTB" ])
  in
  List.iter
    (fun (config, name, structures, origins) ->
      let expected =
        Printf.sprintf "Coverage on %s over 30 test cases:\n\
                       \  access paths exercised: 15/15 (100%%)\n\
                        %s\
                       \  structures with observed writes: %s (100%%)\n\
                       \  access-path provenances observed: %s\n"
          name per_path structures origins
      in
      Alcotest.(check string) (name ^ " slice coverage") expected
        (Format.asprintf "%a" Coverage.pp
           (Coverage.measure config (Mitigation_eval.slice ()))))
    [
      ( Config.boom, "BOOM (SonicBOOM v3, SmallBoomConfig)",
        "register-file, line-fill-buffer, store-buffer, ptw-cache, ubtb, ftb, \
         wb-buffer, prefetcher",
        "branch-exec, csr-read, explicit-load, explicit-store, \
         memset-destroy, prefetch, ptw-walk, refill, writeback" );
      ( Config.xiangshan, "XiangShan (MinimalConfig)",
        "register-file, line-fill-buffer, store-buffer, ptw-cache, ubtb, ftb, \
         wb-buffer",
        "branch-exec, csr-read, explicit-load, explicit-store, \
         memset-destroy, ptw-walk, refill, writeback" );
    ]

let test_log_serialization_of_real_run () =
  (* A real test-case log survives the SimLog.txt round trip and the
     checker finds the same cases on the parsed copy. *)
  let tc = Assembler.assemble ~id:0 Access_path.Exp_acc_enc_l1 ~params:(Params.make ()) in
  let outcome = Runner.run Config.boom tc in
  let text = Simlog.Serialize.to_string outcome.Runner.log in
  match Simlog.Serialize.parse_string text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok parsed ->
    let original = Checker.distinct_cases (Checker.check outcome.Runner.log outcome.Runner.tracker) in
    let reparsed = Checker.distinct_cases (Checker.check parsed outcome.Runner.tracker) in
    Alcotest.(check (list cases)) "same verdict on the parsed log" original reparsed

let test_csv_exports () =
  let result = Campaign.run Config.xiangshan (Mitigation_eval.slice ()) in
  let csv = Tables.table3_csv [ result ] in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 10 case rows" 11 (List.length lines);
  Alcotest.(check bool) "header labels" true
    (match lines with
    | h :: _ -> h = "case,XiangShan_paper,XiangShan_measured,XiangShan_testcases"
    | [] -> false)

let test_btb_tag_sweep () =
  (* XiangShan geometry: 1-bit offset + 10 index bits; the PCs differ at
     bit 27, so tags of <= 16 bits alias and 17+ bits separate. *)
  List.iter
    (fun (bits, aliases, distinguishable) ->
      let expected = bits <= 16 in
      Alcotest.(check bool) (Printf.sprintf "alias at tag=%d" bits) expected aliases;
      Alcotest.(check bool)
        (Printf.sprintf "channel at tag=%d" bits)
        expected distinguishable)
    (Scenarios.btb_tag_sweep Config.xiangshan ~tag_bits:[ 14; 16; 17; 20 ])

(* Checker soundness: purely benign host activity produces no findings,
   whatever addresses and values it touches. *)
let prop_benign_programs_clean =
  QCheck.Test.make ~name:"benign host programs produce no findings" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 15) (pair (int_bound 63) int64))
    (fun accesses ->
      let env = Env.create Config.boom Params.default in
      let instrs =
        List.concat_map
          (fun (slot, value) ->
            [
              Riscv.Instr.Li (Riscv.Instr.t0, value);
              Riscv.Instr.Li
                ( Riscv.Instr.t1,
                  Int64.add Tee.Memory_layout.host_data_base (Int64.of_int (slot * 8)) );
              Riscv.Instr.sd Riscv.Instr.t0 Riscv.Instr.t1 0L;
              Riscv.Instr.ld Riscv.Instr.t2 Riscv.Instr.t1 0L;
            ])
          accesses
        @ [ Riscv.Instr.Fence; Riscv.Instr.Halt ]
      in
      ignore
        (Tee.Security_monitor.run_host env.Env.sm
           (Riscv.Program.of_instrs ~base:Tee.Memory_layout.host_code_base instrs));
      Machine.switch_context env.Env.machine
        ~to_ctx:(Simlog.Exec_context.Host Riscv.Priv.Supervisor);
      Checker.check (Machine.log env.Env.machine) env.Env.tracker = [])

let test_verification_report () =
  let report =
    Verification_report.generate ~full_corpus:false [ Config.xiangshan ]
  in
  let contains needle =
    let n = String.length needle and m = String.length report in
    let rec at i = i + n <= m && (String.sub report i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true (contains needle))
    [
      "# TEESec verification report";
      "## Leakage campaign";
      "## Mitigation matrix";
      "## Coverage";
      "## Recommended countermeasures";
      "matches the paper's verdicts";
      "Figure 7";
      "Table 1: TEESec components and automation status";
      "Extension: mitigation performance ablation";
      "XiangShan/switch-heavy";
      "tag=17 bits: PCs alias=false";
    ]

(* {1 Scenarios (figures)} *)

let observation trace key =
  match List.assoc_opt key trace.Scenarios.observations with
  | Some v -> v
  | None -> Alcotest.failf "missing observation %S in %s" key trace.Scenarios.title

let test_figure2 () =
  let boom = Scenarios.prefetcher Config.boom in
  Alcotest.(check string) "BOOM leaks via prefetch" "true"
    (observation boom "enclave line pulled into LFB (D1)");
  let xs = Scenarios.prefetcher Config.xiangshan in
  Alcotest.(check string) "XS has no L1 prefetcher" "false"
    (observation xs "prefetcher present")

let test_figure3 () =
  let boom = Scenarios.ptw Config.boom in
  Alcotest.(check string) "BOOM PTW fills the LFB" "true"
    (observation boom "enclave line filled into LFB (D2)");
  let xs = Scenarios.ptw Config.xiangshan in
  Alcotest.(check string) "XS pre-check suppresses the request" "false"
    (observation xs "enclave line filled into LFB (D2)")

let test_figure4 () =
  let boom = Scenarios.destroy_residue Config.boom in
  Alcotest.(check string) "BOOM retains destroy residue" "true"
    (observation boom "secrets persist in LFB after switch (D3)");
  let xs = Scenarios.destroy_residue Config.xiangshan in
  Alcotest.(check string) "XS miss queue clears" "false"
    (observation xs "secrets persist in LFB after switch (D3)")

let test_figure5 () =
  let xs = Scenarios.xs_fake_hit Config.xiangshan in
  Alcotest.(check string) "hit forwards the secret" "verbatim secret"
    (observation xs "hit response data");
  Alcotest.(check string) "miss returns zero" "zero (fake hit)"
    (observation xs "miss response data");
  let hit = int_of_string (observation xs "hit response latency (cycles)") in
  let miss = int_of_string (observation xs "miss response latency (cycles)") in
  Alcotest.(check bool) "C3-vs-C30 latency gap" true (miss > hit);
  Alcotest.(check int) "hit at the configured latency"
    Config.xiangshan.Config.latencies.Config.l1_hit hit

let test_figure6 () =
  let xs = Scenarios.hpc_interrupt Config.xiangshan in
  Alcotest.(check string) "XS lazy check" "lazy" (observation xs "CSR privilege check");
  Alcotest.(check string) "XS spills to store buffer" "true"
    (observation xs "counter value spilled to store buffer");
  Alcotest.(check string) "architectural state protected" "false"
    (observation xs "architectural register leaked");
  let boom = Scenarios.hpc_interrupt Config.boom in
  Alcotest.(check string) "BOOM early check writes nothing" "false"
    (observation boom "counter value spilled to store buffer")

let test_figure7 () =
  List.iter
    (fun config ->
      let t = Scenarios.btb_alias config in
      Alcotest.(check string)
        (config.Config.name ^ " PCs alias")
        "true" (observation t "PCs alias");
      Alcotest.(check string)
        (config.Config.name ^ " outcome distinguishable")
        "true"
        (observation t "outcome distinguishable"))
    [ Config.boom; Config.xiangshan ]

(* {1 Reports} *)

let test_report_rendering () =
  let tc = Assembler.assemble ~id:0 Access_path.Exp_acc_enc_l1 ~params:(Params.make ()) in
  let outcome = Runner.run Config.boom tc in
  let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
  let text = Format.asprintf "%a" (fun fmt () -> Report.render fmt outcome findings) () in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "mentions leakage" true (contains "Enclave secret leakage detected");
  Alcotest.(check bool) "mentions the register file" true (contains "register-file");
  Alcotest.(check bool) "mentions the cycle" true (contains "Sim Cycle No.")

let () =
  Alcotest.run "integration"
    [
      ("table3-boom", per_case_tests Config.boom);
      ("table3-xiangshan", per_case_tests Config.xiangshan);
      ( "campaign",
        [
          Alcotest.test_case "BOOM slice matches paper" `Slow
            (test_campaign_slice_matches_paper Config.boom);
          Alcotest.test_case "XiangShan slice matches paper" `Slow
            (test_campaign_slice_matches_paper Config.xiangshan);
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "negative paths clean on BOOM" `Quick
            (test_negative_paths_clean Config.boom);
          Alcotest.test_case "negative paths clean on XS" `Quick
            (test_negative_paths_clean Config.xiangshan);
          Alcotest.test_case "campaign, inject and fuzz agree" `Slow
            test_pipelines_agree;
        ] );
      ( "mitigations",
        [
          Alcotest.test_case "BOOM knobs" `Slow test_mitigations_boom;
          Alcotest.test_case "XiangShan knobs" `Slow test_mitigations_xiangshan;
          Alcotest.test_case "tagging extension (section 8)" `Slow test_tagging_extension;
          Alcotest.test_case "BOOM v2.3 campaign" `Slow test_boom_v2_campaign;
          Alcotest.test_case "overhead ablation (extension)" `Quick test_overhead_ablation;
          Alcotest.test_case "coverage (extension)" `Slow test_coverage;
          Alcotest.test_case "coverage report of the slice" `Slow
            test_coverage_slice_text;
          Alcotest.test_case "mitigation recommendations (extension)" `Slow
            test_recommendations;
          Alcotest.test_case "overhead workload ordering" `Slow test_overhead_workloads;
          Alcotest.test_case "random long-fuzzing corpus" `Slow test_random_corpus;
          Alcotest.test_case "program trace (dump-asm)" `Quick test_program_trace;
          Alcotest.test_case "SimLog round-trip on a real run" `Quick
            test_log_serialization_of_real_run;
          Alcotest.test_case "verification report (extension)" `Slow
            test_verification_report;
          Alcotest.test_case "uBTB tag-width sweep (extension)" `Slow test_btb_tag_sweep;
          Alcotest.test_case "CSV exports" `Slow test_csv_exports;
          QCheck_alcotest.to_alcotest prop_benign_programs_clean;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 2: prefetcher" `Quick test_figure2;
          Alcotest.test_case "figure 3: page walk" `Quick test_figure3;
          Alcotest.test_case "figure 4: destroy residue" `Quick test_figure4;
          Alcotest.test_case "figure 5: fake hit" `Quick test_figure5;
          Alcotest.test_case "figure 6: HPC interrupt" `Quick test_figure6;
          Alcotest.test_case "figure 7: uBTB alias" `Quick test_figure7;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
    ]
