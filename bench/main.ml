(* Benchmark harness: writes the two throughput records that
   bench/compare.ml gates.

   - BENCH_snapshot.json: the snapshot/fork engine against the
     replay-everything oracle, four phases on BOOM.
   - BENCH_campaign.json: the full 585-test-case campaign per core on the
     replay path, with its Table 3 verdict.

   The paper's tables and figures are printed by [teesec report --full]. *)

module Json = Obs.Json

let boom = Uarch.Config.boom
let xiangshan = Uarch.Config.xiangshan

(* Both checked-in baselines record one job, and the engine's caches
   are per domain, so its snapshot counts reproduce only at one job. *)
let jobs = 1

(* All wall-clock measurement goes through one active observability
   sink: phase timings land in the
   [teesec_bench_phase_duration_seconds{phase=...}] histogram (and the
   sink's tracer), and the campaigns run with the same sink so their
   internal spans and counters are exercised by every harness run. *)
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

   BENCH_campaign.json and BENCH_snapshot.json are each one JSON
   document rendered by {!Obs.Json}; measured times and rates are
   rounded to a fixed number of decimals so the checked-in records stay
   readable.  bench/compare.ml gates CI on their throughput; every other
   timing number comes from perfbench/. *)

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
      (snd (Teesec.Testcase.split tc)).Teesec.Gadget.name
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

let section title =
  Format.printf "@.==================== %s ====================@." title

let () =
  (* The snapshot phases go first, while the process still looks like a
     fresh one: the heap the campaigns leave behind shifts both paths'
     absolute times. *)
  section "Snapshot/fork engine vs replay oracle";
  let snapshot_phases = run_snapshot_phases () in
  write_snapshot_json ~path:"BENCH_snapshot.json" snapshot_phases;
  Format.printf "snapshot record written to BENCH_snapshot.json@.";

  section "Full 585-test-case campaign per core";
  let campaign_results =
    List.map
      (fun config ->
        Format.printf "running the corpus on %s...@." config.Uarch.Config.name;
        timed_phase "campaign" (fun () ->
            Teesec.Campaign.run_full ~jobs ~obs config))
      [ boom; xiangshan ]
  in
  write_campaign_json ~path:"BENCH_campaign.json" campaign_results;
  Format.printf "campaign record written to BENCH_campaign.json@.";
  List.iter
    (fun ((r : Teesec.Campaign.result), _) ->
      Format.printf "%s: Table 3 %s@." r.Teesec.Campaign.config.Uarch.Config.name
        (if Teesec.Campaign.matches_paper r then "MATCHES the paper"
         else "DIFFERS from the paper"))
    campaign_results
