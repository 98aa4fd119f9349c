(* The benchmark's workloads.

   Every workload repeats one user-facing operation per core model, at
   the CLI's defaults: [--jobs 1], the noop observability sink, wave taps
   off, and — as [campaign] and [inject] do per invocation — a fresh
   snapshot engine inside every operation.  Each operation's output is
   checked against the paper's Table 3 (or the workload's own invariant)
   and must equal the untimed warm-up operation's output exactly.

   The traced variant of each operation does the same work through the
   libraries' public per-case entry points, wrapped in spans named after
   the layer each call enters; [Measure.self_times] turns those spans
   into the per-layer split.  It is held to the same output, so the split
   describes the measured work. *)

module Campaign = Teesec.Campaign
module Config = Uarch.Config
module Inject_campaign = Inject.Inject_campaign

let cores = [ Config.boom; Config.xiangshan ]

let core_name (c : Config.t) =
  String.lowercase_ascii (Config.core_kind_to_string c.Config.kind)

(* What one operation produced, as plain data that can cross a process
   boundary: whether it passed the workload's own check, a [key] (its
   marshalled output) that every run of the operation must repeat exactly,
   and the exact per-layer counts it performed. *)
type outcome = { valid : bool; key : string; counts : (string * float) list }

let outcome ~valid key counts =
  { valid; key = Marshal.to_string key [ Marshal.No_sharing ]; counts }

type instance = {
  prepare : unit -> bool;
      (** Untimed work before the first operation (reference outputs);
          false when a reference is wrong. *)
  op : int -> Config.t -> unit -> unit -> outcome;
      (** [op i c] prepares operation [i] of the run (0 is the warm-up)
          on core [c]: its input order, its service.  Applying that to
          [()] runs the operation — the timed part — and returns its
          check, called after the clock stops. *)
  traced : Obs.t -> int -> Config.t -> unit -> unit -> outcome;
      (** The same operation through bench-side layer spans. *)
  peak_rss_kb : unit -> int;
      (** Peak resident memory of the operation just run, read before
          its check. *)
  stop : unit -> unit;  (** Removes what {!t.setup} created. *)
}

type t = {
  name : string;
  config : string;  (** The settings the operation runs with. *)
  setup : seed:int64 -> instance;
      (** Builds the inputs from the seed; what a set-up sample times. *)
}

(* {1 Metrics} *)

let end_to_end =
  [
    ("setup_s", "s");
    ("boom_op_ms", "ms");
    ("xiangshan_op_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Layer spans, reported as their share of the traced operations' wall
   time.  [op] is the root span; its self time is everything no layer
   span covers. *)
let families = List.map Teesec.Access_path.to_string Teesec.Access_path.all
let access_span family = "runner.access." ^ family

let layer_spans =
  [ "op"; "runner.establish" ]
  @ List.map access_span families
  @ [
      "checker";
      "provenance";
      "campaign.aggregate";
      "inject.eval_case";
      "inject.aggregate";
      "symex.explore";
      "serve.plan";
      "serve.execute";
      "serve.store_get";
      "serve.store_put";
      "serve.assemble";
    ]

let share_metric span = (if span = "op" then "other" else span) ^ ".share"

(* Exact counts of one repetition (one operation per core), read from the
   warm-up; 0 on workloads that never enter the layer. *)
let count_metrics =
  [
    ("items", "count");
    ("sim.cycles", "count");
    ("sim.log_records", "count");
    ("sim.residue_warnings", "count");
    ("snapshot.hits", "count");
    ("snapshot.misses", "count");
    ("snapshot.replayed_gadgets", "count");
    ("symex.paths", "count");
    ("symex.witnesses", "count");
    ("serve.shards", "count");
  ]

let per_layer =
  List.map (fun s -> (share_metric s, "ratio")) layer_spans
  @ [ ("runner.access.share", "ratio") ]
  @ count_metrics
  @ [
      ("gc.minor_words", "count");
      ("gc.major_collections", "count");
      ("trace_overhead", "ratio");
    ]

(* {1 Shared pieces} *)

(* The corpus order of operation [i]: the seed fixes the sequence of
   orders a run goes through.  The work done does not depend on the order
   (snapshot hits and replays, cycles and allocations repeat exactly);
   garbage-collection timing does, so each operation takes a new order and
   a run's statistics span them. *)
let permuted ~seed i l =
  let a = Array.of_list l in
  let st = Random.State.make [| Int64.to_int seed; Int64.to_int (Int64.shift_right seed 32); i |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let count n = float_of_int n

(* [f ()] in a forked child, its plain-data result marshalled back; [None]
   when the child fails.  The child leads its own session, so an exception
   here (the run's time limit) kills it together with any service it
   started. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       ignore (Unix.setsid ());
       let oc = Unix.out_channel_of_descr w in
       Marshal.to_channel oc (f ()) [ Marshal.No_sharing ];
       close_out oc
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let finish () =
      close_in_noerr ic;
      ignore (Unix.waitpid [] pid)
    in
    match Marshal.from_channel ic with
    | v ->
      finish ();
      Some v
    | exception (End_of_file | Failure _) ->
      finish ();
      None
    | exception e ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      finish ();
      raise e)

let snapshot_counts engine =
  let s = Teesec.Snapshot.stats engine in
  [
    ("snapshot.hits", count s.Teesec.Snapshot.hits);
    ("snapshot.misses", count s.Teesec.Snapshot.misses);
    ("snapshot.replayed_gadgets", count s.Teesec.Snapshot.replayed_gadgets);
  ]

(* {1 The campaign: table3} *)

(* What the campaign path must reproduce exactly: verdicts, simulated
   cycles, log records, residue warnings and provenance chains. *)
let campaign_key (r : Campaign.result) =
  ( r.Campaign.found,
    r.Campaign.total_cycles,
    r.Campaign.total_log_records,
    r.Campaign.residue_warnings,
    List.length r.Campaign.provenance )

let campaign_counts (r : Campaign.result) engine =
  [
    ("items", count r.Campaign.total_cases);
    ("sim.cycles", count r.Campaign.total_cycles);
    ("sim.log_records", count r.Campaign.total_log_records);
    ("sim.residue_warnings", count r.Campaign.residue_warnings);
  ]
  @ snapshot_counts engine

(* [Campaign.run] decomposed through [Runner.run ~prepare], the checker
   and provenance, one case at a time, then folded by
   [Campaign.aggregate] — the per-case evaluation [Campaign.eval_case]
   performs, with the fork point split out.  Every span of a case carries
   the case's name. *)
let traced_campaign obs ~snapshots config corpus =
  let outcomes =
    List.map
      (fun (tc : Teesec.Testcase.t) ->
        let name = Teesec.Testcase.name tc in
        let args = [ ("case", Obs.Tracer.String name) ] in
        let access = access_span (Teesec.Access_path.to_string tc.Teesec.Testcase.path) in
        Obs.begin_span obs ~args "runner.establish";
        let outcome =
          Teesec.Runner.run ~snapshots
            ~prepare:(fun _ ->
              Obs.end_span obs "runner.establish";
              Obs.begin_span obs ~args access)
            config tc
        in
        Obs.end_span obs access;
        let findings =
          Obs.span obs ~args "checker" (fun () ->
              Teesec.Checker.check outcome.Teesec.Runner.log
                outcome.Teesec.Runner.tracker)
        in
        let provenance =
          Obs.span obs ~args "provenance" (fun () ->
              Teesec.Provenance.of_outcome ~config outcome
                (List.filter
                   (fun (f : Teesec.Checker.finding) -> f.Teesec.Checker.case <> None)
                   findings))
        in
        {
          Campaign.co_name = name;
          co_cases = Teesec.Checker.distinct_cases findings;
          co_residue = Teesec.Checker.residue_warnings findings;
          co_cycles = outcome.Teesec.Runner.cycles;
          co_log_records = outcome.Teesec.Runner.log_records;
          co_summary = Teesec.Report.summary_line tc findings;
          co_wave = outcome.Teesec.Runner.wave;
          co_provenance = provenance;
        })
      corpus
  in
  Obs.span obs "campaign.aggregate" (fun () -> Campaign.aggregate config outcomes)

let base =
  {
    prepare = (fun () -> true);
    op = (fun _ _ () () -> outcome ~valid:false () []);
    traced = (fun _ _ _ () () -> outcome ~valid:false () []);
    peak_rss_kb = (fun () -> Measure.vm_hwm_kb 0);
    stop = ignore;
  }

let table3 =
  {
    name = "table3";
    config = "jobs=1 sink=noop snapshot=per-op taps=off";
    setup =
      (fun ~seed ->
        let corpus = Teesec.Fuzzer.corpus () in
        let summary r engine () =
          outcome ~valid:(Campaign.matches_paper r) (campaign_key r) (campaign_counts r engine)
        in
        {
          base with
          op =
            (fun i c ->
              let corpus = permuted ~seed i corpus in
              fun () ->
                let snapshots = Teesec.Snapshot.create c in
                summary (Campaign.run ~snapshots c corpus) snapshots);
          traced =
            (fun obs i c ->
              let corpus = permuted ~seed i corpus in
              fun () ->
                let snapshots = Teesec.Snapshot.create c in
                summary (traced_campaign obs ~snapshots c corpus) snapshots);
        });
  }

(* {1 Fault injection: inject-slice} *)

let inject_plans = 25

let inject_slice =
  {
    name = "inject-slice";
    config = "jobs=1 sink=noop snapshot=per-op taps=off plans=25 plan-seed=0x5EED";
    setup =
      (fun ~seed ->
        (* The plans are the CLI default's ([inject --seed 0x5EED]):
           which plans fire sets the cost, and it varies across plan seeds
           by more than the bound.  The run's seed orders the slice. *)
        let plan_seed = 0x5EEDL in
        let slice = Teesec.Mitigation_eval.slice () in
        let summary (r : Inject_campaign.result) engine () =
          outcome ~valid:r.Inject_campaign.baseline_matches_paper
            ( r.Inject_campaign.baseline_found,
              r.Inject_campaign.baseline_residue,
              r.Inject_campaign.plan_totals,
              r.Inject_campaign.unit_totals,
              List.map (fun p -> p.Inject_campaign.faults_applied) r.Inject_campaign.plan_results )
            (("items", count (inject_plans * List.length slice)) :: snapshot_counts engine)
        in
        {
          base with
          op =
            (fun i c ->
              let slice = permuted ~seed i slice in
              fun () ->
                let snapshots = Teesec.Snapshot.create c in
                summary (Inject_campaign.run ~snapshots ~seed:plan_seed ~plans:inject_plans c slice) snapshots);
          (* [Inject_campaign.run] is the plan sample, [eval_case] per
             case and [aggregate]; the traced run makes those calls. *)
          traced =
            (fun obs i c ->
              let slice = permuted ~seed i slice in
              fun () ->
                let snapshots = Teesec.Snapshot.create c in
                let plan_list = Inject.Fault_plan.sample ~seed:plan_seed ~count:inject_plans in
                let evals =
                  List.map
                    (fun tc ->
                      Obs.span obs
                        ~args:[ ("case", Obs.Tracer.String (Teesec.Testcase.name tc)) ]
                        "inject.eval_case"
                        (fun () -> Inject_campaign.eval_case ~snapshots c plan_list tc))
                    slice
                in
                let r =
                  Obs.span obs "inject.aggregate" (fun () ->
                      Inject_campaign.aggregate ~seed:plan_seed ~plan_list c evals)
                in
                summary r snapshots);
        });
  }

(* {1 Symbolic execution: symex-sbi} *)

let symex_sbi =
  {
    name = "symex-sbi";
    config = "jobs=1 sink=noop max-paths=default";
    setup =
      (fun ~seed:_ ->
        let summary (r : Symex.Explore.t) () =
          let t = r.Symex.Explore.totals in
          let paths = t.Symex.Explore.paths_total in
          outcome
            ~valid:
              (t.Symex.Explore.witnesses_total = paths
              && t.Symex.Explore.replay_ok_total = paths
              && t.Symex.Explore.monitor_ok_total = paths)
            t
            [
              ("items", count paths);
              ("symex.paths", count paths);
              ("symex.witnesses", count t.Symex.Explore.witnesses_total);
            ]
        in
        {
          base with
          op = (fun _ c () -> summary (Symex.Explore.run c));
          traced = (fun obs _ c () -> summary (Obs.span obs "symex.explore" (fun () -> Symex.Explore.run c)));
        });
  }

(* {1 The campaign service: serve-cold} *)

type service = { pid : int; client : Serve.Client.t }

(* One worker: the job's time is then one process's work.  On the 2-vCPU
   VM the benchmark was sized on, two workers made it the scheduler's,
   16-23% apart from run to run. *)
let service_workers = 1

let start_service ~socket_path ~store_root =
  let cfg =
    {
      (Serve.Daemon.default_config ~socket_path ~store_root) with
      Serve.Daemon.workers = service_workers;
    }
  in
  let pid = Serve.Daemon.spawn cfg in
  match Serve.Client.connect_retry ~attempts:20_000 ~delay:0.0005 ~socket_path () with
  | Ok client -> { pid; client }
  | Error e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith ("service did not start: " ^ e)

let stop_service s =
  (match Serve.Client.shutdown s.client with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Serve.Client.close s.client;
  ignore (Unix.waitpid [] s.pid)

(* Submit and wait: the job's status at submission and its artifact. *)
let run_job s spec =
  match Serve.Client.submit s.client spec with
  | Error e -> Error e
  | Ok js -> (
    match Serve.Client.results s.client js.Serve.Protocol.js_job with
    | Ok (Ok artifact) -> Ok (js, artifact.Serve.Client.data)
    | Ok (Error _) -> Error "job incomplete"
    | Error e -> Error e)

(* The daemon's work for one job, in this process: plan, then per shard a
   verdict-store lookup or an execution and its store writes, then
   assembly.  Returns the shard count, the store hits and the artifact. *)
let replay obs store spec =
  let span name f = Obs.span obs name f in
  match span "serve.plan" (fun () -> Serve.Planner.plan spec) with
  | Error e -> Error e
  | Ok shards ->
    let engines = Serve.Executor.create_engines () in
    let hits = ref 0 in
    let payloads =
      List.map
        (fun (sh : Serve.Planner.shard) ->
          let digest = sh.Serve.Planner.digest in
          match span "serve.store_get" (fun () -> Serve.Store.get store Serve.Store.Verdicts ~digest) with
          | Some payload ->
            incr hits;
            payload
          | None ->
            let payload, _ =
              span "serve.execute" (fun () ->
                  Serve.Executor.execute ~engines ~wave:false sh.Serve.Planner.work)
            in
            span "serve.store_put" (fun () ->
                if sh.Serve.Planner.corpus_digest <> "" then
                  Serve.Store.put store Serve.Store.Corpus ~digest:sh.Serve.Planner.corpus_digest
                    (Serve.Planner.corpus_text sh.Serve.Planner.work);
                Serve.Store.put store Serve.Store.Verdicts ~digest payload);
            payload)
        shards
    in
    span "serve.assemble" (fun () -> Serve.Artifact.assemble spec payloads)
    |> Result.map (fun data -> (List.length shards, !hits, data))

(* Each operation starts a service (daemon plus its worker) on an empty
   store and connects, untimed; the timed part submits the full-corpus
   campaign for one core over that one connection and waits for the
   artifact, which must be byte-identical to the one-shot CLI's [campaign
   --full --csv] with no shard found in the store. *)
let serve_cold =
  {
    name = "serve-cold";
    config = Printf.sprintf "service workers=%d clients=1 store=cold" service_workers;
    setup =
      (fun ~seed:_ ->
        let dir = Filename.concat ".perfbench-tmp" (Printf.sprintf "cold-%d" (Unix.getpid ())) in
        Measure.mkdir_p dir;
        let fresh =
          let n = ref 0 in
          fun prefix ->
            incr n;
            Filename.concat dir (Printf.sprintf "%s%d-%d" prefix (Unix.getpid ()) !n)
        in
        let spec (c : Config.t) =
          Serve.Request.Campaign
            { core = core_name c; mitigations = []; corpus = Serve.Request.Full }
        in
        let csvs = ref [] in
        let expected (c : Config.t) = List.assoc_opt c.Config.name !csvs in
        let running = ref None in
        let summary c result =
          match result with
          | Error _ -> outcome ~valid:false () []
          | Ok (shards, hits, data) ->
            outcome
              ~valid:(Some data = expected c && hits = 0)
              data
              [ ("items", count (Teesec.Fuzzer.total_cases ())); ("serve.shards", count shards) ]
        in
        {
          prepare =
            (fun () ->
              (* The reference CSVs come from a child, so the services
                 forked later start from this process's small heap. *)
              csvs :=
                Option.value ~default:[]
                  (in_child (fun () ->
                       List.map
                         (fun (c : Config.t) ->
                           let r = Campaign.run_full c in
                           if not (Campaign.matches_paper r) then failwith "reference differs from the paper";
                           (c.Config.name, Teesec.Tables.table3_csv [ r ]))
                         cores));
              !csvs <> []);
          op =
            (fun _ c ->
              let store_root = fresh "store" in
              let s = start_service ~socket_path:(fresh "sock") ~store_root in
              running := Some s;
              fun () ->
                let result =
                  try run_job s (spec c)
                  with e ->
                    stop_service s;
                    raise e
                in
                fun () ->
                  stop_service s;
                  running := None;
                  Measure.rm_rf store_root;
                  summary c
                    (Result.map
                       (fun (js, data) -> (js.Serve.Protocol.js_total, js.Serve.Protocol.js_hits, data))
                       result));
          traced =
            (fun obs _ c ->
              let root = fresh "store" in
              let store = Serve.Store.open_ ~root in
              fun () ->
                let artifact = replay obs store (spec c) in
                fun () ->
                  Measure.rm_rf root;
                  summary c artifact);
          (* The service's memory: its daemon and workers. *)
          peak_rss_kb =
            (fun () ->
              match !running with
              | None -> 0
              | Some s ->
                List.fold_left (fun m p -> max m (Measure.vm_hwm_kb p)) 0 (s.pid :: Measure.children s.pid));
          (* Services run only inside operations' children, whose sessions
             [in_child] kills on the way out. *)
          stop = (fun () -> Measure.rm_rf dir);
        });
  }

let all = [ table3; inject_slice; symex_sbi; serve_cold ]

let find name = List.find_opt (fun w -> w.name = name) all
