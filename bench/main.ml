(* Benchmark harness and experiment regeneration.

   Running this executable regenerates every table and figure of the
   paper's evaluation:

   - Table 1: component automation summary (static plan metadata).
   - Table 2: gadget inventory, the 585-test-case corpus, and measured
     per-phase timing (Bechamel micro-benchmarks of the gadget
     constructor, the checker and a full test-case execution).
   - Table 3: the full campaign on BOOM and XiangShan, compared with the
     paper's per-core verdicts.
   - Table 4: the mitigation matrix, re-running a corpus slice under each
     countermeasure on both cores.
   - Figures 2-7: the case-study scenarios with their measured
     observations (prefetcher abuse, PTW hijack, destroy residue, the
     fake-hit timing gap, the HPC interrupt window, uBTB aliasing).

   Absolute times differ from the paper (their substrate was Verilator
   RTL simulation; ours is a behavioural model), but the shape of every
   result — which cases are found on which core, which mitigations help —
   is compared row by row. *)

open Bechamel
open Toolkit
module Json = Obs.Json

let boom = Uarch.Config.boom
let xiangshan = Uarch.Config.xiangshan

(* Campaign phases fan out across domains; override with TEESEC_JOBS
   (results are deterministic for every value). *)
let jobs =
  match Sys.getenv_opt "TEESEC_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg "TEESEC_JOBS must be a positive integer")
  | None -> Parallel.Pool.default_jobs ()

(* All wall-clock measurement goes through one active observability
   sink: phase timings land in the
   [teesec_bench_phase_duration_seconds{phase=...}] histogram (and the
   sink's tracer), and the campaign/inject/fuzz pipelines run with the
   same sink so their internal spans and counters are exercised by
   every harness run. *)
let obs = Obs.create ()

let timed_phase name f =
  let histogram =
    Option.map
      (fun m ->
        Obs.Metrics.histogram m
          ~labels:[ ("phase", name) ]
          ~help:"Wall time of one evaluation-harness phase."
          "teesec_bench_phase_duration_seconds")
      (Obs.metrics obs)
  in
  Obs.timed obs ?histogram name f

(* {1 Bench records}

   Every BENCH_*.json file is one JSON document rendered by {!Obs.Json};
   measured times and rates are rounded to a fixed number of decimals so
   the checked-in records stay readable. *)

let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Json.Num (Float.round (x *. scale) /. scale)

let rate units seconds = fixed 1 (float_of_int units /. seconds)

let case c = Json.Str (Teesec.Case.to_string c)

let core_name (config : Uarch.Config.t) =
  String.lowercase_ascii
    (Uarch.Config.core_kind_to_string config.Uarch.Config.kind)

let write_record ~path fields =
  Obs.write_file ~path (Json.to_document (Json.Obj fields))

(* {1 Bechamel benches} *)

let bench_gadget_constructor =
  Test.make ~name:"table2/gadget-constructor"
    (Staged.stage (fun () ->
         ignore
           (Teesec.Assembler.assemble ~id:0 Teesec.Access_path.Exp_acc_enc_l1
              ~params:Teesec.Params.default)))

(* The checker bench analyses a representative prepared log. *)
let prepared_outcome =
  lazy
    (let tc =
       Teesec.Assembler.assemble ~id:0 Teesec.Access_path.Exp_acc_enc_l1
         ~params:Teesec.Params.default
     in
     Teesec.Runner.run boom tc)

let bench_checker =
  Test.make ~name:"table2/checker"
    (Staged.stage (fun () ->
         let outcome = Lazy.force prepared_outcome in
         ignore
           (Teesec.Checker.check outcome.Teesec.Runner.log
              outcome.Teesec.Runner.tracker)))

let bench_testcase config name =
  Test.make ~name
    (Staged.stage (fun () ->
         let tc =
           Teesec.Assembler.assemble ~id:0 Teesec.Access_path.Exp_acc_enc_l1
             ~params:Teesec.Params.default
         in
         let outcome = Teesec.Runner.run config tc in
         ignore
           (Teesec.Checker.check outcome.Teesec.Runner.log
              outcome.Teesec.Runner.tracker)))

let bench_faulting_load config name ~in_l1 =
  Test.make ~name
    (Staged.stage (fun () ->
         let env = Teesec.Env.create config Teesec.Params.default in
         Teesec.Gadget_library.create_enclave.Teesec.Gadget.emit env;
         Teesec.Gadget_library.fill_enc_mem.Teesec.Gadget.emit env;
         if not in_l1 then Teesec.Gadget_library.evict_enc_l1.Teesec.Gadget.emit env;
         ignore
           (Uarch.Machine.load env.Teesec.Env.machine
              ~vaddr:(Teesec.Env.secret_addr env) ~size:8 ())))

let bench_binary_assembler =
  Test.make ~name:"encode/assemble-quickstart-attack"
    (Staged.stage (fun () ->
         let prog =
           Riscv.Program.of_instrs ~base:0x8000_0000L
             [
               Riscv.Instr.Li (Riscv.Instr.a4, 0x8800_8000L);
               Riscv.Instr.ld Riscv.Instr.a5 Riscv.Instr.a4 0L;
               Riscv.Instr.Halt;
             ]
         in
         ignore (Riscv.Encode.assemble prog)))

let benches =
  [
    bench_gadget_constructor;
    bench_binary_assembler;
    bench_checker;
    bench_testcase boom "table3/test-case-boom";
    bench_testcase xiangshan "table3/test-case-xiangshan";
    bench_faulting_load xiangshan "figure5/faulting-load-secret-in-l1" ~in_l1:true;
    bench_faulting_load xiangshan "figure5/faulting-load-secret-evicted" ~in_l1:false;
  ]

(* Run one bench and return the OLS estimates of nanoseconds per run. *)
let measure_bench test =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = [ Instance.monotonic_clock ] in
  let analyze = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Benchmark.all cfg instances test in
  let ols = Analyze.all analyze Instance.monotonic_clock results in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (estimate :: _) -> (name, estimate) :: acc
      | _ -> acc)
    ols []

let run_benches () =
  Format.printf "== Bechamel micro-benchmarks (ns/run) ==@.";
  let results =
    List.concat_map
      (fun test -> measure_bench (Test.make_grouped ~name:"" [ test ]))
      benches
  in
  let results = List.sort compare results in
  List.iter
    (fun (name, ns) ->
      Format.printf "  %-44s %14.1f ns/run (%.3f ms)@." name ns (ns /. 1e6))
    results;
  Format.printf "@.";
  results

let find_ns results fragment =
  List.fold_left
    (fun acc (name, ns) ->
      if Teesec.Strutil.contains_substring ~needle:fragment name then Some ns
      else acc)
    None results

(* {1 Machine-readable campaign record}

   BENCH_campaign.json tracks the perf trajectory across PRs: corpus
   size, per-core wall time, simulated cycles, log records, and the job
   count the campaign ran with.  The campaign result itself carries no
   timing (reports must be byte-identical across job counts and
   observability), so the wall clock comes from the harness's own
   [timed_phase] wrapper. *)

let write_campaign_json ~path results =
  let campaign ((r : Teesec.Campaign.result), wall_time_s) =
    let cases = r.Teesec.Campaign.total_cases in
    Json.Obj
      [
        ("core", Str (core_name r.Teesec.Campaign.config));
        ("testcases", Json.int cases);
        ("wall_time_s", fixed 3 wall_time_s);
        ("cases_per_s", rate cases wall_time_s);
        ("total_cycles", Json.int r.Teesec.Campaign.total_cycles);
        ("total_log_records", Json.int r.Teesec.Campaign.total_log_records);
        ("residue_warnings", Json.int r.Teesec.Campaign.residue_warnings);
        ("found", Json.list case r.Teesec.Campaign.found);
        ("matches_paper", Bool (Teesec.Campaign.matches_paper r));
      ]
  in
  write_record ~path
    [
      ("jobs", Json.int jobs);
      ("hardware_threads", Json.int (Parallel.Pool.default_jobs ()));
      ("corpus_size", Json.int (Teesec.Fuzzer.total_cases ()));
      ("campaigns", Json.list campaign results);
    ]

(* {1 Machine-readable injection record}

   BENCH_inject.json tracks the fault-injection campaign: wall time and
   faulted-runs-per-second for a small plan batch per core, plus the
   robustness classification.  The campaign result itself contains no
   timing (reports must be byte-identical across job counts), so the
   wall clock is wrapped around the call here. *)

let write_inject_json ~path results =
  let campaign ((r : Inject.Inject_campaign.result), wall_time_s) =
    let plans = List.length r.Inject.Inject_campaign.plan_results in
    let units = plans * r.Inject.Inject_campaign.testcases in
    let { Inject.Inject_campaign.stable; spurious; masked } =
      r.Inject.Inject_campaign.plan_totals
    in
    Json.Obj
      [
        ("core", Str (core_name r.Inject.Inject_campaign.config));
        ("seed", Str (Riscv.Word.to_hex r.Inject.Inject_campaign.seed));
        ("plans", Json.int plans);
        ("testcases", Json.int r.Inject.Inject_campaign.testcases);
        ("faulted_runs", Json.int units);
        ("wall_time_s", fixed 3 wall_time_s);
        ("cases_per_s", rate units wall_time_s);
        ( "plan_totals",
          Obj [ ("stable", Json.int stable); ("spurious", Json.int spurious);
                ("masked", Json.int masked) ] );
        ( "baseline_matches_paper",
          Bool r.Inject.Inject_campaign.baseline_matches_paper );
      ]
  in
  write_record ~path
    [ ("jobs", Json.int jobs); ("campaigns", Json.list campaign results) ]

(* {1 Machine-readable snapshot/fork record}

   BENCH_snapshot.json measures the snapshot/fork execution engine
   (Teesec.Snapshot) against the replay-everything oracle on the same
   workloads.  Both paths produce byte-identical reports — the
   differential suites pin campaign CSV, inject JSON and fuzz JSON
   across them — so this record tracks only throughput.

   Each phase runs [snapshot_reps] repetitions per path and reports the
   median; a phase's repetitions share one engine, so the median
   reflects the steady-state (warm-cache) cost while [snapshot_cold_s]
   keeps the first, cache-building repetition honest.  The setup-bound
   phases exclude the Imp_Acc_Destroy_Memset family: its cost is the
   measured destroy-residue behaviour itself (the access gadget and the
   checker, not enclave setup), which no amount of prefix sharing can
   remove and which therefore Amdahl-bounds the full-workload ratios
   reported alongside. *)

type snapshot_phase = {
  sp_name : string;
  sp_units : int;  (** Executions evaluated per repetition. *)
  sp_replay_s : float;  (** Median over repetitions. *)
  sp_snap_cold_s : float;  (** First repetition: cache still filling. *)
  sp_snap_s : float;  (** Median over repetitions (warm-inclusive). *)
  sp_stats : Teesec.Snapshot.stats;  (** Cumulative over repetitions. *)
}

let snapshot_reps = 3

let median l =
  List.nth (List.sort compare l) (List.length l / 2)

let run_snapshot_phase ~name ~units ~replay ~snap =
  let runs f =
    let acc = ref [] in
    for _ = 1 to snapshot_reps do
      Gc.compact ();
      acc := snd (timed_phase ("snapshot/" ^ name) f) :: !acc
    done;
    List.rev !acc
  in
  let replay_times = runs replay in
  let engine = Teesec.Snapshot.create ~obs boom in
  let snap_times = runs (fun () -> snap engine) in
  {
    sp_name = name;
    sp_units = units;
    sp_replay_s = median replay_times;
    sp_snap_cold_s = List.hd snap_times;
    sp_snap_s = median snap_times;
    sp_stats = Teesec.Snapshot.stats engine;
  }

let setup_bound_only tcs =
  List.filter
    (fun tc ->
      (Teesec.Testcase.access_gadget tc).Teesec.Gadget.name
      <> "Imp_Acc_Destroy_Memset")
    tcs

let run_snapshot_phases () =
  let slice = Teesec.Mitigation_eval.slice () in
  let corpus = Teesec.Fuzzer.corpus () in
  (* The inner runs deliberately use the noop sink (the CLI default):
     active-sink instrumentation adds a uniform per-case cost to both
     paths, which would understate the engine's ratio. *)
  let inject tcs ?snapshots () =
    ignore
      (Inject.Inject_campaign.run ~jobs ?snapshots ~seed:0x5EEDL ~plans:20
         boom tcs)
  in
  let campaign tcs ?snapshots () =
    ignore (Teesec.Campaign.run ~jobs ?snapshots boom tcs)
  in
  (* The full-corpus campaign goes first: a user's campaign runs in a
     fresh process, and the replay baseline measurably speeds up once a
     few workloads have already grown and warmed the heap — measuring
     it at process start keeps the baseline honest.  The later phases'
     ratios are far from 1, so warm-heap skew cannot change their
     story. *)
  let phases =
    [
      (run_snapshot_phase ~name:"campaign-full"
         ~units:(List.length corpus)
         ~replay:(campaign corpus ?snapshots:None)
         ~snap:(fun e -> campaign corpus ~snapshots:e ()));
      (let tcs = setup_bound_only corpus in
       run_snapshot_phase ~name:"campaign-setup-bound"
         ~units:(List.length tcs)
         ~replay:(campaign tcs ?snapshots:None)
         ~snap:(fun e -> campaign tcs ~snapshots:e ()));
      (* (plan x case) units per repetition: the snapshot path proves
         most of them equal the clean baseline (span pruning) instead
         of executing them — that is the throughput being measured. *)
      (let tcs = setup_bound_only slice in
       run_snapshot_phase ~name:"inject-setup-bound"
         ~units:(20 * List.length tcs)
         ~replay:(inject tcs ?snapshots:None)
         ~snap:(fun e -> inject tcs ~snapshots:e ()));
      (run_snapshot_phase ~name:"inject-full-slice"
         ~units:(20 * List.length slice)
         ~replay:(inject slice ?snapshots:None)
         ~snap:(fun e -> inject slice ~snapshots:e ()));
    ]
  in
  List.iter
    (fun p ->
      Format.printf
        "  %-22s %6d units: replay %6.0f/s, snapshot %6.0f/s (%.2fx; cold \
         %.2fx); %d hits / %d misses@."
        p.sp_name p.sp_units
        (float_of_int p.sp_units /. p.sp_replay_s)
        (float_of_int p.sp_units /. p.sp_snap_s)
        (p.sp_replay_s /. p.sp_snap_s)
        (p.sp_replay_s /. p.sp_snap_cold_s)
        p.sp_stats.Teesec.Snapshot.hits p.sp_stats.Teesec.Snapshot.misses)
    phases;
  phases

let write_snapshot_json ~path phases =
  let phase p =
    let { Teesec.Snapshot.hits; misses; stores; restored_gadgets;
          replayed_gadgets } =
      p.sp_stats
    in
    Json.Obj
      [
        ("phase", Str p.sp_name);
        ("core", Str "boom");
        ("units", Json.int p.sp_units);
        ("replay_s", fixed 3 p.sp_replay_s);
        ("replay_units_per_s", rate p.sp_units p.sp_replay_s);
        ("snapshot_cold_s", fixed 3 p.sp_snap_cold_s);
        ("snapshot_s", fixed 3 p.sp_snap_s);
        ("snapshot_units_per_s", rate p.sp_units p.sp_snap_s);
        ("speedup", fixed 2 (p.sp_replay_s /. p.sp_snap_s));
        ( "snapshot",
          Obj [ ("hits", Json.int hits); ("misses", Json.int misses);
                ("stores", Json.int stores);
                ("restored_gadgets", Json.int restored_gadgets);
                ("replayed_gadgets", Json.int replayed_gadgets) ] );
      ]
  in
  write_record ~path
    [
      ("jobs", Json.int jobs);
      ("reps", Json.int snapshot_reps);
      ("phases", Json.list phase phases);
    ]

(* {1 Machine-readable wave-tap record}

   BENCH_wave.json measures what the microarchitectural event taps
   (lib/wave) cost: the corpus-slice campaign with taps off vs on, at
   equal jobs, reps and median as the snapshot record.  The tap is a
   one-branch check on the hot path when off and a buffer append when
   on, so the interesting numbers are the overhead ratio and the stream
   volume a slice campaign produces.  Verdict artifacts are pinned
   byte-identical across the two paths by the differential suites, so
   only throughput and volume are recorded here. *)

type wave_phase = {
  wv_name : string;
  wv_units : int;  (** Test cases evaluated per repetition. *)
  wv_off_s : float;  (** Median over repetitions, taps off. *)
  wv_on_s : float;  (** Median over repetitions, taps on. *)
  wv_stream_bytes : int;  (** Total encoded stream size, one repetition. *)
  wv_events : int;  (** Total decoded events, one repetition. *)
}

let wave_reps = 3

let run_wave_phase () =
  let slice = Teesec.Mitigation_eval.slice () in
  let runs f =
    let acc = ref [] in
    for _ = 1 to wave_reps do
      Gc.compact ();
      acc := snd (timed_phase "wave/campaign-slice" f) :: !acc
    done;
    List.rev !acc
  in
  let off_times =
    runs (fun () -> ignore (Teesec.Campaign.run ~jobs boom slice))
  in
  let waves = ref [] in
  let on_times =
    runs (fun () ->
        let r = Teesec.Campaign.run ~jobs ~wave:true boom slice in
        waves := r.Teesec.Campaign.waves)
  in
  let stream_bytes =
    List.fold_left (fun acc (_, s) -> acc + String.length s) 0 !waves
  in
  let events =
    List.fold_left
      (fun acc (_, s) -> acc + Wave.Query.length (Wave.Query.of_stream s))
      0 !waves
  in
  let p =
    {
      wv_name = "campaign-slice";
      wv_units = List.length slice;
      wv_off_s = median off_times;
      wv_on_s = median on_times;
      wv_stream_bytes = stream_bytes;
      wv_events = events;
    }
  in
  Format.printf
    "  %-22s %6d units: taps off %6.0f/s, on %6.0f/s (%.2fx overhead); %d \
     events, %d stream bytes@."
    p.wv_name p.wv_units
    (float_of_int p.wv_units /. p.wv_off_s)
    (float_of_int p.wv_units /. p.wv_on_s)
    (p.wv_on_s /. p.wv_off_s)
    p.wv_events p.wv_stream_bytes;
  p

let write_wave_json ~path p =
  let phase =
    Json.Obj
      [
        ("phase", Str p.wv_name);
        ("core", Str "boom");
        ("units", Json.int p.wv_units);
        ("off_s", fixed 3 p.wv_off_s);
        ("off_units_per_s", rate p.wv_units p.wv_off_s);
        ("on_s", fixed 3 p.wv_on_s);
        ("on_units_per_s", rate p.wv_units p.wv_on_s);
        ("overhead", fixed 3 (p.wv_on_s /. p.wv_off_s));
        ("events", Json.int p.wv_events);
        ("stream_bytes", Json.int p.wv_stream_bytes);
      ]
  in
  write_record ~path
    [
      ("jobs", Json.int jobs);
      ("reps", Json.int wave_reps);
      ("phases", Arr [ phase ]);
    ]

(* {1 Machine-readable fuzzing record}

   BENCH_fuzz.json compares blind random sampling (energy 0) against the
   coverage-guided engine (lib/fuzz) at equal seed and budget: test
   cases to full Table 3 coverage per core, the discovery curve of every
   leakage case, and the corpus/coverage statistics.  The engine report
   itself contains no timing (reports must be byte-identical across job
   counts), so wall clocks are wrapped around the calls here. *)

let write_fuzz_json ~path ~seed ~budget results =
  let discovery (d : Fuzz.Engine.discovery) =
    Json.Obj [ ("case", case d.Fuzz.Engine.case); ("at", Json.int d.Fuzz.Engine.at) ]
  in
  let campaign ((r : Fuzz.Engine.report), wall_time_s) =
    let energy = r.Fuzz.Engine.options.Fuzz.Engine.energy in
    Json.Obj
      [
        ("core", Str (core_name r.Fuzz.Engine.config));
        ("mode", Str (if energy > 0 then "guided" else "random"));
        ("energy", Json.int energy);
        ("executed", Json.int r.Fuzz.Engine.executed);
        ( "cases_to_full_table3",
          Json.option Json.int r.Fuzz.Engine.cases_to_full_table3 );
        ("edges_covered", Json.int r.Fuzz.Engine.edges_covered);
        ("bits_covered", Json.int r.Fuzz.Engine.bits_covered);
        ("corpus_entries", Json.int r.Fuzz.Engine.corpus_entries);
        ("distilled", Json.int r.Fuzz.Engine.distilled);
        ("wall_time_s", fixed 3 wall_time_s);
        ("cases_per_s", rate r.Fuzz.Engine.executed wall_time_s);
        ("discoveries", Json.list discovery r.Fuzz.Engine.discoveries);
      ]
  in
  write_record ~path
    [
      ("jobs", Json.int jobs);
      ("seed", Str (Riscv.Word.to_hex seed));
      ("budget", Json.int budget);
      ("campaigns", Json.list campaign results);
    ]

(* {1 Machine-readable symbolic-execution record}

   BENCH_symex.json tracks the symbolic explorer (lib/symex) on the SBI
   surface: path-enumeration throughput, witnesses found, and the time
   to lower the accepted-path witnesses into a fuzz seed corpus.  The
   explorer report itself contains no timing (reports must be
   byte-identical across job counts and observability), so wall clocks
   are wrapped around the calls here; each phase reports the median of
   [symex_reps] repetitions. *)

type symex_phase = {
  sx_core : string;
  sx_paths : int;
  sx_witnesses : int;
  sx_corpus_entries : int;
  sx_explore_s : float;  (** Median over repetitions. *)
  sx_seed_s : float;  (** Witness-to-corpus lowering, median. *)
}

let symex_reps = 3

let run_symex_phases () =
  List.map
    (fun config ->
      let reps name f =
        let acc = ref [] in
        let result = ref None in
        for _ = 1 to symex_reps do
          let r, secs = timed_phase name f in
          result := Some r;
          acc := secs :: !acc
        done;
        (Option.get !result, median (List.rev !acc))
      in
      let report, explore_s =
        reps "symex/explore" (fun () -> Symex.Explore.run ~jobs ~obs config)
      in
      let seeds, seed_s =
        reps "symex/seed-corpus" (fun () -> Symex.Synthesize.testcases_of report)
      in
      let t = report.Symex.Explore.totals in
      {
        sx_core = core_name config;
        sx_paths = t.Symex.Explore.paths_total;
        sx_witnesses = t.Symex.Explore.witnesses_total;
        sx_corpus_entries = List.length seeds;
        sx_explore_s = explore_s;
        sx_seed_s = seed_s;
      })
    [ boom; xiangshan ]

let write_symex_json ~path phases =
  let phase p =
    Json.Obj
      [
        ("phase", Str ("explore-" ^ p.sx_core));
        ("paths", Json.int p.sx_paths);
        ("witnesses", Json.int p.sx_witnesses);
        ("corpus_entries", Json.int p.sx_corpus_entries);
        ("explore_s", fixed 3 p.sx_explore_s);
        ("paths_per_s", rate p.sx_paths p.sx_explore_s);
        ("corpus_seed_s", fixed 4 p.sx_seed_s);
      ]
  in
  write_record ~path
    [
      ("jobs", Json.int jobs);
      ("reps", Json.int symex_reps);
      ("phases", Json.list phase phases);
    ]

(* {1 Machine-readable campaign-service record}

   BENCH_serve.json measures the lib/serve daemon on the slice campaign:
   end-to-end submit-to-artifact latency against a cold store (every
   shard executes on a worker) and against a warm store after a daemon
   restart (every shard hits, nothing executes), at 1 and 4 worker
   processes.  The artifact bytes are pinned equal to the one-shot CLI
   by the test suite, so this record tracks only the orchestration cost:
   shards/s through the workers when cold, and the pure
   plan-lookup-assemble overhead when warm. *)

type serve_phase = {
  se_workers : int;
  se_shards : int;
  se_cold_s : float;
  se_warm_s : float;
  se_warm_hits : int;
}

let run_serve_phase () =
  let module Daemon = Serve.Daemon in
  let module Client = Serve.Client in
  let dir = Filename.temp_dir "teesec_bench_serve" "" in
  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let spec =
    Serve.Request.Campaign
      { core = "boom"; mitigations = []; corpus = Serve.Request.Slice }
  in
  let submit_timed cfg =
    let pid = Daemon.spawn cfg in
    let finish () =
      (try Unix.kill pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] pid) with _ -> ()
    in
    Fun.protect ~finally:finish (fun () ->
        match Client.connect_retry ~socket_path:cfg.Daemon.socket_path () with
        | Error e -> failwith e
        | Ok client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              let js =
                match Client.submit client spec with
                | Ok js -> js
                | Error e -> failwith e
              in
              (match Client.results client js.Serve.Protocol.js_job with
              | Ok (Ok _) -> ()
              | Ok (Error _) -> failwith "serve bench: job still pending"
              | Error e -> failwith e);
              let dt = Unix.gettimeofday () -. t0 in
              (match Client.shutdown client with
              | Ok () -> ignore (Unix.waitpid [] pid)
              | Error _ -> ());
              (js, dt)))
  in
  let phases =
    List.map
      (fun workers ->
        let store_root =
          Filename.concat dir (Printf.sprintf "store-w%d" workers)
        in
        let cfg =
          {
            (Daemon.default_config
               ~socket_path:
                 (Filename.concat dir (Printf.sprintf "w%d.sock" workers))
               ~store_root)
            with
            Daemon.workers;
          }
        in
        let js_cold, cold_s = submit_timed cfg in
        let js_warm, warm_s = submit_timed cfg in
        {
          se_workers = workers;
          se_shards = js_cold.Serve.Protocol.js_total;
          se_cold_s = cold_s;
          se_warm_s = warm_s;
          se_warm_hits = js_warm.Serve.Protocol.js_hits;
        })
      [ 1; 4 ]
  in
  rm_rf dir;
  List.iter
    (fun p ->
      Format.printf
        "  %d worker(s): %d shards; cold %.3fs (%.1f shards/s), warm %.3fs \
         (%d/%d hits)@."
        p.se_workers p.se_shards p.se_cold_s
        (float_of_int p.se_shards /. p.se_cold_s)
        p.se_warm_s p.se_warm_hits p.se_shards)
    phases;
  phases

let write_serve_json ~path phases =
  let phase p =
    Json.Obj
      [
        ("workers", Json.int p.se_workers);
        ("shards", Json.int p.se_shards);
        ("cold_s", fixed 3 p.se_cold_s);
        ("cold_shards_per_s", rate p.se_shards p.se_cold_s);
        ("warm_s", fixed 3 p.se_warm_s);
        ("warm_hits", Json.int p.se_warm_hits);
      ]
  in
  write_record ~path
    [ ("request", Str "campaign slice on boom"); ("phases", Json.list phase phases) ]

(* {1 Experiment regeneration} *)

let section title =
  Format.printf "@.==================== %s ====================@." title

let () =
  Format.printf
    "TEESec evaluation harness: regenerating every table and figure of the paper@.@.";

  (* The service phase MUST run first: Daemon.spawn forks, and forking
     is only safe while this process has a single domain — every later
     phase may fan out across domains via the parallel pool. *)
  section "Extension: campaign service (daemon, workers, store)";
  let serve_phases = run_serve_phase () in
  write_serve_json ~path:"BENCH_serve.json" serve_phases;
  Format.printf "service record written to BENCH_serve.json@.";

  (* Measured before the table/figure phases: once those have run, the
     harness heap is large enough to shift both paths' absolute times
     (see the caveat in EXPERIMENTS.md), so the throughput record is
     taken while the process still looks like a fresh one. *)
  section "Extension: snapshot/fork engine vs replay oracle";
  let snapshot_phases = run_snapshot_phases () in
  write_snapshot_json ~path:"BENCH_snapshot.json" snapshot_phases;
  Format.printf "snapshot record written to BENCH_snapshot.json@.";

  (* Also heap-sensitive, so measured while the process is still small:
     the tap-off baseline is the same slice campaign the snapshot phase
     just timed, and the overhead ratio should reflect the tap, not a
     grown heap. *)
  section "Extension: wave tap overhead";
  let wave_phase = run_wave_phase () in
  write_wave_json ~path:"BENCH_wave.json" wave_phase;
  Format.printf "wave record written to BENCH_wave.json@.";

  section "Table 1";
  print_string (Teesec.Tables.table1 ());

  section "Table 3 (full 585-test-case campaign per core)";
  let campaign_results =
    List.map
      (fun config ->
        Format.printf "running the corpus on %s (%d jobs)...@."
          config.Uarch.Config.name jobs;
        timed_phase "campaign" (fun () ->
            Teesec.Campaign.run_full ~jobs ~obs config))
      [ boom; xiangshan ]
  in
  print_string (Teesec.Tables.table3 (List.map fst campaign_results));
  write_campaign_json ~path:"BENCH_campaign.json" campaign_results;
  Format.printf "campaign record written to BENCH_campaign.json@.";
  (* The paper also evaluated the pre-SonicBOOM release (v2.3). *)
  let v2 =
    Teesec.Campaign.run ~jobs ~obs Uarch.Config.boom_v2
      (Teesec.Mitigation_eval.slice ())
  in
  Format.printf "BOOM v2.3 (corpus slice): %s@."
    (if Teesec.Campaign.matches_paper v2 then
       "same findings as the BOOM column (matches the paper)"
     else "DIFFERS from the BOOM column");
  let distinct =
    List.sort_uniq Teesec.Case.compare
      (List.concat_map (fun (r, _) -> r.Teesec.Campaign.found) campaign_results)
  in
  Format.printf "Distinct vulnerabilities across both designs: %d (paper: 10)@."
    (List.length distinct);

  section "Extension: checker-robustness fault injection";
  let inject_results =
    List.map
      (fun config ->
        Format.printf "injecting 20 fault plans over the slice on %s (%d jobs)...@."
          config.Uarch.Config.name jobs;
        timed_phase "inject" (fun () ->
            Inject.Inject_campaign.run ~jobs ~obs ~seed:0x5EEDL ~plans:20
              config
              (Teesec.Mitigation_eval.slice ())))
      [ boom; xiangshan ]
  in
  List.iter
    (fun ((r : Inject.Inject_campaign.result), wall) ->
      Format.printf "%a  (%.2fs wall)@.@." Inject.Robustness_report.pp r wall)
    inject_results;
  write_inject_json ~path:"BENCH_inject.json" inject_results;
  Format.printf "injection record written to BENCH_inject.json@.";

  section "Extension: coverage-guided fuzzing (random vs guided)";
  let fuzz_seed = 0x5EEDL in
  let fuzz_budget = 150 in
  let fuzz_results =
    List.concat_map
      (fun config ->
        List.map
          (fun energy ->
            Format.printf "fuzzing %s with energy %d%% (%d jobs)...@."
              config.Uarch.Config.name energy jobs;
            timed_phase "fuzz" (fun () ->
                Fuzz.Engine.run ~jobs ~obs
                  {
                    Fuzz.Engine.default with
                    Fuzz.Engine.seed = fuzz_seed;
                    budget = fuzz_budget;
                    energy;
                  }
                  config))
          [ 0; 80 ])
      [ boom; xiangshan ]
  in
  List.iter
    (fun ((r : Fuzz.Engine.report), wall) ->
      Format.printf "%a  (%.2fs wall)@.@." Fuzz.Fuzz_report.pp r wall)
    fuzz_results;
  (* The headline comparison: cases to full Table 3 at equal seed/budget. *)
  List.iter
    (fun config ->
      let at_energy e =
        List.find_map
          (fun ((r : Fuzz.Engine.report), _) ->
            if
              r.Fuzz.Engine.config.Uarch.Config.kind
              = config.Uarch.Config.kind
              && r.Fuzz.Engine.options.Fuzz.Engine.energy = e
            then Some r.Fuzz.Engine.cases_to_full_table3
            else None)
          fuzz_results
      in
      let show = function
        | Some (Some n) -> string_of_int n
        | _ -> Printf.sprintf ">%d (not reached)" fuzz_budget
      in
      Format.printf
        "%s: cases to full Table 3 -- random %s vs guided %s@."
        config.Uarch.Config.name
        (show (at_energy 0))
        (show (at_energy 80)))
    [ boom; xiangshan ];
  write_fuzz_json ~path:"BENCH_fuzz.json" ~seed:fuzz_seed ~budget:fuzz_budget
    fuzz_results;
  Format.printf "fuzzing record written to BENCH_fuzz.json@.";

  section "Extension: symbolic execution of the SBI surface";
  let symex_phases = run_symex_phases () in
  List.iter
    (fun p ->
      Format.printf
        "  %-10s %3d paths, %3d witnesses -> %2d corpus entries; explore \
         %.3fs (%.0f paths/s), seed corpus %.4fs@."
        p.sx_core p.sx_paths p.sx_witnesses p.sx_corpus_entries p.sx_explore_s
        (float_of_int p.sx_paths /. p.sx_explore_s)
        p.sx_seed_s)
    symex_phases;
  write_symex_json ~path:"BENCH_symex.json" symex_phases;
  Format.printf "symex record written to BENCH_symex.json@.";

  section "Table 4 (mitigation matrix per core)";
  let mitigation_results =
    List.map (Teesec.Mitigation_eval.evaluate ~jobs) [ boom; xiangshan ]
  in
  print_string (Teesec.Tables.table4 mitigation_results);

  section "Verification-plan coverage";
  List.iter
    (fun config ->
      Format.printf "%a@." Teesec.Coverage.pp
        (Teesec.Coverage.measure ~jobs config (Teesec.Mitigation_eval.slice ())))
    [ boom; xiangshan ];

  section "Extension: mitigation performance ablation";
  List.iter
    (fun workload ->
      let overhead_results =
        List.map (Teesec.Overhead.evaluate ~workload ~jobs) [ boom; xiangshan ]
      in
      print_string (Teesec.Overhead.table overhead_results);
      print_newline ())
    [ Teesec.Overhead.Mixed; Teesec.Overhead.Switch_heavy; Teesec.Overhead.Compute_heavy ];

  section "Extension: uBTB partial-tag width sweep (Figure 7 ablation)";
  List.iter
    (fun config ->
      Format.printf "%s (PCs differ at bit 27; offset+index cover %d bits):@."
        config.Uarch.Config.name
        (1 + 10);
      List.iter
        (fun (bits, aliases, distinguishable) ->
          Format.printf
            "  tag=%2d bits: PCs alias=%b, probe distinguishes enclave branch=%b@."
            bits aliases distinguishable)
        (Teesec.Scenarios.btb_tag_sweep config
           ~tag_bits:[ 12; 14; 16; 17; 18; 20 ]))
    [ xiangshan ];

  section "Extension: mitigation recommendations";
  List.iter
    (fun config ->
      Format.printf "%a@." Teesec.Recommend.pp_result
        (Teesec.Recommend.evaluate ~max_size:2 config))
    [ boom; xiangshan ];

  List.iter
    (fun config ->
      section
        (Printf.sprintf "Figures 2-7 on %s"
           (Uarch.Config.core_kind_to_string config.Uarch.Config.kind));
      List.iter
        (fun (_, trace) -> Format.printf "%a@." Teesec.Scenarios.pp_trace trace)
        (Teesec.Scenarios.all config))
    [ boom; xiangshan ];

  (* The micro-benchmarks run last: after Bechamel has run, this
     process's heap keeps growing through every later phase (to several
     GB by exit), so no timed phase may follow it.  Their estimates feed
     Table 2. *)
  let bench_results = run_benches () in
  section "Table 2";
  let timings =
    match
      ( find_ns bench_results "gadget-constructor",
        find_ns bench_results "checker",
        find_ns bench_results "test-case-boom" )
    with
    | Some c, Some k, Some t -> Some (c /. 1e9, k /. 1e9, t /. 1e9)
    | _ -> None
  in
  print_string (Teesec.Tables.table2 ?timings ());

  section "Summary";
  List.iter
    (fun ((r : Teesec.Campaign.result), _) ->
      Format.printf "%s: Table 3 %s@." r.Teesec.Campaign.config.Uarch.Config.name
        (if Teesec.Campaign.matches_paper r then "MATCHES the paper"
         else "DIFFERS from the paper"))
    campaign_results
