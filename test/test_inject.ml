(* Tests for the fault-injection subsystem (lib/inject).

   The contracts under test are the ones the robustness campaigns rely
   on: plan sampling is a pure function of the seed, the campaign is
   bit-identical for every job count, a zero-fault baseline still
   reproduces the paper's Table 3 verdicts, and the corpus generators
   the campaigns rerun are themselves deterministic. *)

open Teesec
module Config = Uarch.Config
module Machine = Uarch.Machine
module Structure = Simlog.Structure
module Fault_model = Inject.Fault_model
module Fault_plan = Inject.Fault_plan
module Injector = Inject.Injector
module Inject_campaign = Inject.Inject_campaign
module Robustness_report = Inject.Robustness_report

(* {1 Fault model vocabulary} *)

let test_fault_model_roundtrip () =
  List.iter
    (fun m ->
      let s = Fault_model.to_string m in
      match Fault_model.of_string s with
      | Some m' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" s)
          true
          (Fault_model.equal m m')
      | None -> Alcotest.failf "of_string failed on %s" s)
    Fault_model.vocabulary;
  Alcotest.(check bool) "unknown name rejected" true
    (Fault_model.of_string "bit-flip:flux-capacitor" = None)

let test_fault_model_structures () =
  (* Every model with a structural target reports it; machine-global
     models report none. *)
  Alcotest.(check bool) "pmp model is global" true
    (Fault_model.structure_of Fault_model.Pmp_stuck_grant = None);
  Alcotest.(check bool) "snapshot delay is global" true
    (Fault_model.structure_of Fault_model.Snapshot_delay = None);
  Alcotest.(check bool) "hpc corruption targets the counters" true
    (Fault_model.structure_of Fault_model.Hpc_corrupt = Some Structure.Hpm_counters);
  List.iter
    (fun target ->
      Alcotest.(check bool)
        (Structure.to_string target ^ " bit-flip target")
        true
        (Fault_model.structure_of (Fault_model.Bit_flip target) = Some target))
    Fault_model.bit_flip_targets

(* {1 Plan sampling determinism (qcheck)} *)

let plan_sampling_deterministic =
  let gen = QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 40)) in
  QCheck.Test.make ~name:"equal seeds yield identical fault plans" ~count:200
    (QCheck.make
       ~print:(fun (seed, count) -> Printf.sprintf "seed=%d count=%d" seed count)
       gen)
    (fun (seed, count) ->
      let seed = Int64.of_int seed in
      let a = Fault_plan.sample ~seed ~count in
      let b = Fault_plan.sample ~seed ~count in
      List.length a = count && List.equal Fault_plan.equal a b)

let plan_batches_share_prefix =
  let gen = QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 30)) in
  QCheck.Test.make ~name:"smaller batches are prefixes of larger ones" ~count:100
    (QCheck.make
       ~print:(fun (seed, count) -> Printf.sprintf "seed=%d count=%d" seed count)
       gen)
    (fun (seed, count) ->
      let seed = Int64.of_int seed in
      let small = Fault_plan.sample ~seed ~count in
      let large = Fault_plan.sample ~seed ~count:(count + 10) in
      List.equal Fault_plan.equal small
        (List.filteri (fun i _ -> i < count) large))

let test_plan_shape () =
  List.iter
    (fun (plan : Fault_plan.t) ->
      let n = List.length plan.Fault_plan.faults in
      Alcotest.(check bool)
        (Printf.sprintf "plan %d has 1-3 faults" plan.Fault_plan.id)
        true
        (n >= 1 && n <= 3);
      (* Faults are sorted by window start for the injector. *)
      let starts =
        List.map (fun f -> f.Fault_plan.window_start) plan.Fault_plan.faults
      in
      Alcotest.(check (list int))
        (Printf.sprintf "plan %d sorted by window start" plan.Fault_plan.id)
        (List.sort compare starts) starts)
    (Fault_plan.sample ~seed:0x5EEDL ~count:50)

(* {1 Campaign determinism across job counts}

   The jobs projection of the byte-identity harness (test/equiv.ml):
   result, report, provenance and one progress line per faulted unit. *)

let small_slice () =
  (* A handful of slice test cases keeps the jobs=1/jobs=4 comparison
     fast while still crossing several access paths. *)
  List.filteri (fun i _ -> i < 6) (Mitigation_eval.slice ())

let test_campaign_jobs_identical () =
  Equiv.row
    ~variants:(Equiv.across ~jobs:[ 1; 4 ] ())
    (Equiv.inject ~seed:42L ~plans:6 (small_slice ()))
    Config.boom ()

let test_campaign_progress_stream () =
  Equiv.row
    ~variants:(Equiv.across ~jobs:[ 1; 3 ] ())
    (Equiv.inject ~seed:7L ~plans:3 (small_slice ()))
    Config.xiangshan ()

(* {1 Clean baseline reproduces Table 3} *)

(* At the bench seed, 20 plans over the slice: the clean baseline
   reproduces Table 3, and the plans split stable/spurious/masked into
   exactly these counts per core. *)
let test_zero_fault_baseline_matches_paper () =
  List.iter
    (fun (config, totals) ->
      let r =
        Inject_campaign.run ~seed:0x5EEDL ~plans:20 config
          (Mitigation_eval.slice ())
      in
      let { Inject_campaign.stable; spurious; masked } =
        r.Inject_campaign.plan_totals
      in
      Alcotest.(check (triple int int int))
        (config.Config.name ^ ": plans stable/spurious/masked")
        totals (stable, spurious, masked);
      Alcotest.(check bool)
        (config.Config.name ^ ": clean baseline matches Table 3")
        true r.Inject_campaign.baseline_matches_paper;
      let expected =
        List.filter (fun c -> Case.expected c config.Config.kind) Case.all
      in
      Alcotest.(check (list string))
        (config.Config.name ^ ": baseline case set")
        (List.map Case.to_string expected)
        (List.map Case.to_string r.Inject_campaign.baseline_found))
    [ (Config.boom, (16, 0, 4)); (Config.xiangshan, (19, 0, 1)) ]

let test_campaign_counts_consistent () =
  let testcases = small_slice () in
  let r = Inject_campaign.run ~seed:9L ~plans:8 Config.boom testcases in
  let { Inject_campaign.stable; spurious; masked } =
    r.Inject_campaign.plan_totals
  in
  Alcotest.(check int) "plan totals sum to plan count" 8
    (stable + spurious + masked);
  let { Inject_campaign.stable; spurious; masked } =
    r.Inject_campaign.unit_totals
  in
  Alcotest.(check int) "unit totals sum to plans * testcases"
    (8 * List.length testcases)
    (stable + spurious + masked);
  List.iter
    (fun (pr : Inject_campaign.plan_result) ->
      Alcotest.(check int)
        (Printf.sprintf "plan %d has one diff per test case"
           pr.Inject_campaign.plan.Fault_plan.id)
        (List.length testcases)
        (List.length pr.Inject_campaign.diffs))
    r.Inject_campaign.plan_results

(* {1 Machine-level fault hooks} *)

let count_events log p =
  List.length
    (List.filter
       (fun (r : Simlog.Log.record) -> p r.Simlog.Log.event)
       (Simlog.Log.to_list log))

let test_pmp_stuck_grant_logs_once () =
  let m = Machine.create Config.boom in
  let faults () =
    count_events (Machine.log m) (function
      | Simlog.Log.Fault_injected _ -> true
      | _ -> false)
  in
  Machine.set_pmp_stuck_grant m true;
  Machine.set_pmp_stuck_grant m true;
  Alcotest.(check int) "arming logs exactly once" 1 (faults ());
  Machine.set_pmp_stuck_grant m false;
  Machine.set_pmp_stuck_grant m true;
  Alcotest.(check int) "re-arming logs again" 2 (faults ())

let test_snapshot_delay_counts_down () =
  let m = Machine.create Config.boom in
  Machine.delay_snapshots m ~count:2;
  (* The first two snapshot requests are swallowed; only the third runs
     and records structure snapshots. *)
  let snapshots () =
    count_events (Machine.log m) (function
      | Simlog.Log.Snapshot _ -> true
      | _ -> false)
  in
  Machine.snapshot_all m;
  Machine.snapshot_all m;
  Alcotest.(check int) "delayed snapshots record nothing" 0 (snapshots ());
  Machine.snapshot_all m;
  Alcotest.(check bool) "third snapshot goes through" true (snapshots () > 0)

let test_flip_bit_empty_structure () =
  let m = Machine.create Config.boom in
  (* A freshly created machine has an empty store buffer and LFB: the
     flip is a no-op and must say so without logging anything. *)
  List.iter
    (fun structure ->
      Alcotest.(check bool)
        (Structure.to_string structure ^ ": flip on empty structure is a no-op")
        false
        (Machine.flip_bit m ~structure ~select:5 ~bit:17))
    [ Structure.Store_buffer; Structure.Lfb ]

(* {1 The machine's fault counter}

   [Inject_campaign] reads a unit's fault count from
   [Machine.faults_logged] instead of decoding the log; the early stop
   compares it across a plan's lifetime.  Both rely on it equalling the
   log's [Fault_injected] records. *)

let test_fault_counter_rewinds () =
  let m = Machine.create Config.boom in
  Machine.set_pmp_stuck_grant m true;
  let snap = Machine.snapshot m in
  ignore (Machine.flip_bit m ~structure:Structure.Hpm_counters ~select:0 ~bit:0);
  Alcotest.(check int) "two faults logged" 2 (Machine.faults_logged m);
  Machine.restore m snap;
  Alcotest.(check int) "restore rewinds the counter" 1 (Machine.faults_logged m)

(* Every faulted run of the slice under the CLI's 25 default plans, on
   both cores, run to the end: forked from the engine, so every run but
   the first starts from a restored counter. *)
let test_fault_counter_matches_log () =
  let plans = Fault_plan.sample ~seed:0x5EEDL ~count:25 in
  List.iter
    (fun config ->
      let snapshots = Snapshot.create config in
      let total = ref 0 in
      List.iter
        (fun tc ->
          List.iter
            (fun (plan : Fault_plan.t) ->
              let o =
                Runner.run ~snapshots
                  ~prepare:(fun env -> Injector.arm env.Env.machine plan)
                  config tc
              in
              let logged =
                (Simlog.Stats.of_log o.Runner.log).Simlog.Stats.faults_injected
              in
              let counted = Machine.faults_logged o.Runner.env.Env.machine in
              if counted <> logged then
                Alcotest.failf "%s, %s, plan %d: counter %d, log %d" config.Config.name
                  (Testcase.name tc) plan.Fault_plan.id counted logged;
              total := !total + logged)
            plans)
        (Mitigation_eval.slice ());
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d faults logged" config.Config.name !total)
        true (!total > 0))
    [ Config.boom; Config.xiangshan ]

(* {1 A spent plan hands the destroy memset back}

   An armed hook sends every word of the 64 KiB destroy memset through
   the per-word store path.  A plan whose only fault fires at the fork
   point is spent a cycle later, so its hook removes itself and the
   memset runs on its line path.  Run straight through the runner, with
   no engine, so neither span pruning nor the early stop applies. *)
let test_spent_plan_hands_memset_back () =
  let tc =
    List.find
      (fun (tc : Testcase.t) ->
        Access_path.equal tc.Testcase.path Access_path.Imp_acc_destroy_memset)
      (Mitigation_eval.slice ())
  in
  let clean = Runner.run Config.boom tc in
  let span = clean.Runner.cycles - clean.Runner.fork_cycle in
  let run window_start =
    let fault =
      { Fault_plan.model = Fault_model.Hpc_corrupt; window_start; window_len = 1; select = 0; bit = 0 }
    in
    let plan = { Fault_plan.id = 0; plan_seed = 0L; faults = [ fault ] } in
    let before = Gc.minor_words () in
    let o =
      Runner.run ~prepare:(fun env -> Injector.arm env.Env.machine plan) Config.boom tc
    in
    (Gc.minor_words () -. before, Machine.faults_logged o.Runner.env.Env.machine)
  in
  let spent, fired = run 0 and armed, not_fired = run (span + 1) in
  Alcotest.(check int) "the fault at the fork point fires" 1 fired;
  Alcotest.(check int) "the fault past the span never fires" 0 not_fired;
  Alcotest.(check bool)
    (Printf.sprintf "spent plan %.0f minor words, armed throughout %.0f" spent armed)
    true
    (spent < armed /. 2.)

(* {1 Corpus generator determinism (regression)} *)

let testcase_fingerprint (tc : Testcase.t) = (Testcase.name tc, tc.Testcase.params)

let test_random_corpus_deterministic () =
  let a = Fuzzer.random_corpus ~seed:0xF00DL ~count:40 in
  let b = Fuzzer.random_corpus ~seed:0xF00DL ~count:40 in
  Alcotest.(check int) "requested size" 40 (List.length a);
  Alcotest.(check bool) "same seed, identical corpus" true
    (List.map testcase_fingerprint a = List.map testcase_fingerprint b);
  let c = Fuzzer.random_corpus ~seed:0xBEEFL ~count:40 in
  Alcotest.(check bool) "different seed, different corpus" false
    (List.map testcase_fingerprint a = List.map testcase_fingerprint c)

(* {1 Params width validation} *)

let test_params_width_validation () =
  List.iter
    (fun width ->
      let p = Params.make ~width () in
      Alcotest.(check int)
        (Printf.sprintf "width %d accepted" width)
        width p.Params.width)
    Params.valid_widths;
  List.iter
    (fun width ->
      match Params.make ~width () with
      | _ -> Alcotest.failf "width %d must be rejected" width
      | exception Invalid_argument _ -> ())
    [ 0; 3; 5; 7; 16; -1 ]

let () =
  Alcotest.run "inject"
    [
      ( "fault-model",
        [
          Alcotest.test_case "to_string/of_string round-trip" `Quick
            test_fault_model_roundtrip;
          Alcotest.test_case "structure attribution" `Quick
            test_fault_model_structures;
        ] );
      ( "fault-plan",
        [
          QCheck_alcotest.to_alcotest plan_sampling_deterministic;
          QCheck_alcotest.to_alcotest plan_batches_share_prefix;
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 == jobs=4, byte-identical JSON" `Slow
            test_campaign_jobs_identical;
          Alcotest.test_case "progress stream identical across jobs" `Slow
            test_campaign_progress_stream;
          Alcotest.test_case "clean baseline reproduces Table 3" `Slow
            test_zero_fault_baseline_matches_paper;
          Alcotest.test_case "outcome counts are consistent" `Slow
            test_campaign_counts_consistent;
        ] );
      ( "machine-hooks",
        [
          Alcotest.test_case "pmp stuck-at-grant arming logs once" `Quick
            test_pmp_stuck_grant_logs_once;
          Alcotest.test_case "snapshot delay counts down" `Quick
            test_snapshot_delay_counts_down;
          Alcotest.test_case "flip_bit on empty structure is a no-op" `Quick
            test_flip_bit_empty_structure;
          Alcotest.test_case "restore rewinds the fault counter" `Quick
            test_fault_counter_rewinds;
          Alcotest.test_case "fault counter matches the log" `Slow
            test_fault_counter_matches_log;
          Alcotest.test_case "spent plan hands the memset back" `Quick
            test_spent_plan_hands_memset_back;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "random_corpus deterministic in seed" `Quick
            test_random_corpus_deterministic;
        ] );
      ( "params",
        [
          Alcotest.test_case "width validated to {1,2,4,8}" `Quick
            test_params_width_validation;
        ] );
    ]
