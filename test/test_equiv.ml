(* The byte-identity matrix: every row of the harness in test/equiv.ml
   over the full matrix of execution knobs, plus the transport column.

   Each (campaign|inject|fuzz, BOOM|XiangShan) row compares its
   reference run (jobs 1, replay, taps off, noop sink, direct call)
   against every combination of jobs 1 or 4, the snapshot engine off or
   on, wave taps off or on and the sink noop or active.  Symbolic
   exploration has no engine and no taps, so its row spans jobs x sink
   only.

   The transport column runs a spec the way the service does, in
   process: plan, ship every shard's work item through the worker
   message codec, execute, encode the payload, decode and assemble.  The
   artifact must equal the one-shot run of the same spec, which resolves
   its config and corpus through [Serve.Request] exactly as the CLI
   does. *)

module Config = Uarch.Config
module Request = Serve.Request

let inject_plans = 3

let fuzz_options =
  { Fuzz.Engine.default with Fuzz.Engine.seed = 42L; budget = 48; batch = 16 }

let matrix name pipeline =
  ( name,
    List.map
      (fun (config : Config.t) ->
        Alcotest.test_case
          (Config.core_kind_to_string config.Config.kind)
          `Slow (Equiv.row pipeline config))
      [ Config.boom; Config.xiangshan ] )

let test_explore () =
  let json ~jobs ~obs =
    Symex.Symex_report.to_json_string (Symex.Explore.run ~jobs ~obs Config.boom)
  in
  let want = json ~jobs:1 ~obs:Obs.noop in
  List.iter
    (fun (jobs, active) ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d sink=%s" jobs (if active then "active" else "noop"))
        want
        (json ~jobs ~obs:(if active then Obs.create () else Obs.noop)))
    [ (1, true); (4, false); (4, true) ]

(* {1 The transport column} *)

(* The one-shot run of a spec, as the CLI performs it. *)
let oneshot spec =
  let config =
    match Request.validate spec with
    | Ok config -> config
    | Error e -> Alcotest.fail e
  in
  match spec with
  | Request.Campaign _ ->
    Teesec.Tables.table3_csv
      [ Teesec.Campaign.run config (Request.corpus_of spec) ]
  | Request.Inject { faults; seed; _ } ->
    Inject.Robustness_report.to_json_string
      (Inject.Inject_campaign.run ~seed ~plans:faults config
         (Request.corpus_of spec))
  | Request.Fuzz { options; _ } ->
    Fuzz.Fuzz_report.to_json_string (Fuzz.Engine.run options config)

(* The service's path, in process. *)
let transported spec =
  match Serve.Planner.plan spec with
  | Error e -> Alcotest.fail e
  | Ok shards -> (
    let engines = Serve.Executor.create_engines () in
    let shipped (s : Serve.Planner.shard) =
      match
        Serve.Protocol.decode_worker_msg
          (Serve.Protocol.encode_worker_msg
             (Serve.Protocol.W_shard
                {
                  digest = s.Serve.Planner.digest;
                  crash = false;
                  job = "equiv";
                  trace = false;
                  wave = false;
                  work = s.Serve.Planner.work;
                }))
      with
      | Serve.Protocol.W_shard { work; _ } -> work
      | Serve.Protocol.W_exit -> Alcotest.fail "work item decoded as W_exit"
    in
    let payloads =
      List.map
        (fun s -> fst (Serve.Executor.execute ~engines ~wave:false (shipped s)))
        shards
    in
    match Serve.Artifact.assemble spec payloads with
    | Ok artifact -> artifact
    | Error e -> Alcotest.fail e)

let transport spec () =
  Alcotest.(check string) "transported artifact = one-shot" (oneshot spec)
    (transported spec)

let () =
  Alcotest.run "equiv"
    [
      matrix "campaign" (Equiv.campaign (Equiv.slice_prefix 6));
      matrix "inject"
        (Equiv.inject ~seed:42L ~plans:inject_plans (Equiv.slice_prefix 6));
      matrix "fuzz" (Equiv.fuzz fuzz_options);
      ( "explore",
        [
          Alcotest.test_case "byte-identical across jobs and obs" `Slow
            test_explore;
        ] );
      (* The transport column. *)
      ( "differential",
        [
          Alcotest.test_case "campaign slice = one-shot CSV" `Slow
            (transport
               (Request.Campaign
                  { core = "boom"; mitigations = []; corpus = Request.Slice }));
          Alcotest.test_case "random campaign = one-shot CSV" `Slow
            (transport
               (Request.Campaign
                  {
                    core = "xiangshan";
                    mitigations = [];
                    corpus = Request.Random { count = 30; seed = 0x77L };
                  }));
          Alcotest.test_case "inject = one-shot JSON" `Slow
            (transport
               (Request.Inject
                  { core = "boom"; faults = inject_plans; seed = 0x5EEDL; full = false }));
          Alcotest.test_case "fuzz = one-shot JSON" `Slow
            (transport (Request.Fuzz { core = "boom"; options = fuzz_options }));
        ] );
    ]
