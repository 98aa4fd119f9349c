(* Tests for the campaign service (lib/serve).

   Four layers of contracts:

   - mechanics: the binary codec and the length-prefixed framing
     round-trip, and the content-addressed store round-trips objects,
     survives field reordering in its digests, and treats corrupt
     objects as misses;

   - the planner: shards partition the request's corpus exactly — no
     dropped and no duplicated case, for arbitrary corpus shapes (a
     qcheck property) — and shard digests are independent of shard
     position;

   - validation: every bad spec the CLI rejects as a usage error is
     rejected by the planner too, so a daemon answers it with an error
     and never hands it to a worker;

   - the shard payloads: real campaign outcomes and inject evaluations
     survive the codec (waves aside) and assemble to the one-shot
     artifact's bytes over random contiguous splits.  The whole
     in-process path, plan to assemble, is the transport column of
     test/test_equiv.ml;

   - the daemon, end to end: a forked daemon with real worker processes
     serves artifacts identical to the one-shot path, a daemon restart
     against the same store re-serves the request from verdicts alone
     (every shard hits, nothing executes), a worker crashed mid-shard is
     respawned and the shard retried without corrupting the artifact,
     and a protocol-mismatched client is rejected at the handshake.

   All campaign/inject runs here use jobs:1, so this process never
   spawns a domain and forking the daemon is safe at any point. *)

module Config = Uarch.Config
module Request = Serve.Request
module Planner = Serve.Planner
module Store = Serve.Store
module Codec = Serve.Codec
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client

let temp_dir prefix = Filename.temp_dir ("teesec_" ^ prefix) ""

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* {1 Codec} *)

let roundtrip enc_f dec_f v =
  let b = Codec.enc () in
  enc_f b v;
  let d = Codec.of_string (Codec.to_string b) in
  let v' = dec_f d in
  Alcotest.(check bool) "decoder consumed everything" true (Codec.at_end d);
  v'

let test_codec_primitives () =
  let b = Codec.enc () in
  Codec.u8 b 0xab;
  Codec.bool b true;
  Codec.int b (-12345);
  Codec.int b max_int;
  Codec.i64 b 0xDEADBEEFCAFEL;
  Codec.str b "hello \x00 world";
  Codec.option b Codec.str None;
  Codec.option b Codec.str (Some "x");
  Codec.list b Codec.int [ 1; 2; 3 ];
  let d = Codec.of_string (Codec.to_string b) in
  Alcotest.(check int) "u8" 0xab (Codec.u8' d);
  Alcotest.(check bool) "bool" true (Codec.bool' d);
  Alcotest.(check int) "int" (-12345) (Codec.int' d);
  Alcotest.(check int) "max_int" max_int (Codec.int' d);
  Alcotest.(check int64) "i64" 0xDEADBEEFCAFEL (Codec.i64' d);
  Alcotest.(check string) "str" "hello \x00 world" (Codec.str' d);
  Alcotest.(check bool) "none" true (Codec.option' d Codec.str' = None);
  Alcotest.(check bool) "some" true (Codec.option' d Codec.str' = Some "x");
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.list' d Codec.int');
  Alcotest.(check bool) "at end" true (Codec.at_end d)

let sample_specs =
  [
    Request.Campaign { core = "boom"; mitigations = []; corpus = Request.Slice };
    Request.Campaign
      {
        core = "xiangshan";
        mitigations = [ "flush-l1d"; "tag-bpu-hpc" ];
        corpus = Request.Full;
      };
    Request.Campaign
      {
        core = "boom";
        mitigations = [];
        corpus = Request.Random { count = 40; seed = 0x5EEDL };
      };
    Request.Inject { core = "boom"; faults = 7; seed = 0xABCL; full = false };
    Request.Fuzz
      {
        core = "xiangshan";
        options =
          {
            Fuzz.Engine.seed = 0x1234L;
            budget = 99;
            batch = 8;
            energy = 55;
            stop_on_full = true;
          };
      };
  ]

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let spec' = roundtrip Request.encode_spec Request.decode_spec spec in
      Alcotest.(check bool) "spec round-trips" true (spec = spec'))
    sample_specs

let test_message_roundtrips () =
  let client_msgs =
    [
      Protocol.Hello { proto = 1; build = "1.1.0" };
      Protocol.Submit { spec = List.hd sample_specs; trace = false; wave = false };
      Protocol.Submit { spec = List.hd sample_specs; trace = true; wave = true };
      Protocol.Status;
      Protocol.Results { job = "abc123"; wait = true };
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun m ->
      let m' = Protocol.decode_client_msg (Protocol.encode_client_msg m) in
      Alcotest.(check bool) "client msg round-trips" true (m = m'))
    client_msgs;
  let js =
    {
      Protocol.js_job = "deadbeef";
      js_kind = "campaign";
      js_total = 10;
      js_done = 4;
      js_running = 3;
      js_hits = 2;
      js_poisoned = 1;
      js_complete = false;
      js_failed = Some "because";
    }
  in
  let server_msgs =
    [
      Protocol.Hello_ok { proto = 1; build = "1.1.0" };
      Protocol.Hello_err "mismatch";
      Protocol.Submitted js;
      Protocol.Status_report
        {
          Protocol.st_version = "teesec 1.1.0 (protocol 1)";
          st_workers = 4;
          st_worker_restarts = 1;
          st_shards_executed = 9;
          st_store_hits = 3;
          st_store_misses = 6;
          st_jobs = [ js ];
        };
      Protocol.Artifact
        { job = "deadbeef"; data = "line1\nline2\n"; trace = None; wave = None };
      Protocol.Artifact
        {
          job = "deadbeef";
          data = "line1\nline2\n";
          trace = Some "{\"traceEvents\": []}";
          wave = Some "wave-bytes";
        };
      Protocol.Pending js;
      Protocol.Failed { job = "deadbeef"; reason = "poisoned" };
      Protocol.Pong { build = "1.1.0" };
      Protocol.Shutting_down;
      Protocol.Error_msg "nope";
    ]
  in
  List.iter
    (fun m ->
      let m' = Protocol.decode_server_msg (Protocol.encode_server_msg m) in
      Alcotest.(check bool) "server msg round-trips" true (m = m'))
    server_msgs

let test_worker_message_roundtrips () =
  let work =
    match
      Serve.Planner.plan
        (Request.Campaign
           { core = "boom"; mitigations = []; corpus = Request.Slice })
    with
    | Ok (s :: _) -> s.Planner.work
    | Ok [] -> Alcotest.fail "empty plan"
    | Error e -> Alcotest.fail e
  in
  let worker_msgs =
    [
      Protocol.W_shard
        { digest = "d1"; crash = false; job = "j1"; trace = true; wave = false; work };
      Protocol.W_shard
        { digest = "d2"; crash = true; job = "j2"; trace = false; wave = true; work };
      Protocol.W_exit;
    ]
  in
  List.iter
    (fun m ->
      let m' = Protocol.decode_worker_msg (Protocol.encode_worker_msg m) in
      Alcotest.(check bool) "worker msg round-trips" true (m = m'))
    worker_msgs;
  let shard_obs =
    {
      Protocol.so_pid = 4242;
      so_t0 = 123_456_789L;
      so_events =
        [
          {
            Obs.Tracer.ph = Obs.Tracer.Begin;
            name = "shard";
            ts = 10L;
            tid = 0;
            args =
              [
                ("job", Obs.Tracer.String "j1");
                ("n", Obs.Tracer.Int 3);
                ("f", Obs.Tracer.Float 2.5);
                ("ok", Obs.Tracer.Bool true);
              ];
          };
          { Obs.Tracer.ph = Obs.Tracer.Instant; name = "mark"; ts = 15L; tid = 0; args = [] };
          { Obs.Tracer.ph = Obs.Tracer.End; name = "shard"; ts = 20L; tid = 0; args = [] };
        ];
      so_metrics =
        [
          {
            Obs.Metrics.e_name = "c";
            e_labels = [ ("k", "v") ];
            e_help = "help";
            e_value = Obs.Metrics.Counter_snapshot 7;
          };
          {
            Obs.Metrics.e_name = "g";
            e_labels = [];
            e_help = "";
            e_value = Obs.Metrics.Gauge_snapshot 1.25;
          };
          {
            Obs.Metrics.e_name = "h";
            e_labels = [ ("worker", "0") ];
            e_help = "hist";
            e_value =
              Obs.Metrics.Histogram_snapshot
                {
                  bounds = [ 0.1; 1.0 ];
                  counts = [ 2; 1; 0 ];
                  sum = 0.75;
                  total = 3;
                };
          };
        ];
      so_wave = "framed-wave-bytes";
    }
  in
  let worker_replies =
    [
      Protocol.W_ready;
      Protocol.W_done { digest = "d1"; payload = "bytes"; obs = None };
      Protocol.W_done { digest = "d1"; payload = "bytes"; obs = Some shard_obs };
    ]
  in
  List.iter
    (fun m ->
      let m' = Protocol.decode_worker_reply (Protocol.encode_worker_reply m) in
      Alcotest.(check bool) "worker reply round-trips" true (m = m'))
    worker_replies

let test_decode_rejects_trailing () =
  let frame = Protocol.encode_client_msg Protocol.Ping ^ "x" in
  Alcotest.check_raises "trailing bytes rejected"
    (Codec.Decode_error "trailing bytes after message") (fun () ->
      ignore (Protocol.decode_client_msg frame))

(* {1 Framing} *)

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let payloads = [ ""; "x"; String.make 70000 'q'; "last" ] in
      List.iter (fun p -> Protocol.write_frame a p) payloads;
      List.iter
        (fun expected ->
          match Protocol.read_frame b with
          | Some got -> Alcotest.(check string) "frame" expected got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Unix.close a;
      Alcotest.(check bool) "clean EOF reads as None" true
        (Protocol.read_frame b = None))

(* {1 Store} *)

let test_store_roundtrip () =
  with_temp_dir "store" (fun root ->
      let store = Store.open_ ~root in
      let digest = Store.digest_of_fields [ ("k", "v") ] in
      Alcotest.(check bool) "absent" true
        (Store.get store Store.Verdicts ~digest = None);
      Store.put store Store.Verdicts ~digest "payload \x00 bytes";
      Alcotest.(check bool) "mem" true (Store.mem store Store.Verdicts ~digest);
      Alcotest.(check bool) "get" true
        (Store.get store Store.Verdicts ~digest = Some "payload \x00 bytes");
      (* Buckets are independent namespaces. *)
      Alcotest.(check bool) "other bucket" true
        (Store.get store Store.Corpus ~digest = None);
      Store.put store Store.Corpus ~digest "corpus text";
      Alcotest.(check int) "corpus count" 1 (Store.count store Store.Corpus);
      Alcotest.(check int) "verdict count" 1 (Store.count store Store.Verdicts);
      (* Overwrite is idempotent. *)
      Store.put store Store.Verdicts ~digest "payload \x00 bytes";
      Alcotest.(check int) "still one object" 1
        (Store.count store Store.Verdicts);
      Store.evict store Store.Verdicts ~digest;
      Alcotest.(check bool) "evicted" true
        (Store.get store Store.Verdicts ~digest = None);
      Store.evict store Store.Verdicts ~digest)

let test_store_corrupt_is_miss () =
  with_temp_dir "store" (fun root ->
      let store = Store.open_ ~root in
      let digest = Store.digest_of_fields [ ("k", "v") ] in
      Store.put store Store.Verdicts ~digest "good";
      (* Truncate below the magic prefix: must read as a miss. *)
      let path = Filename.concat (Filename.concat root "verdicts") digest in
      let oc = open_out path in
      output_string oc "teesec";
      close_out oc;
      Alcotest.(check bool) "truncated object is a miss" true
        (Store.get store Store.Verdicts ~digest = None);
      (* A foreign file with the wrong magic likewise. *)
      let oc = open_out path in
      output_string oc "not a teesec object at all, definitely long enough";
      close_out oc;
      Alcotest.(check bool) "foreign object is a miss" true
        (Store.get store Store.Verdicts ~digest = None))

let field_list_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (pair (string_size ~gen:printable (int_range 1 12))
         (string_size ~gen:printable (int_range 0 20))))

let test_digest_reorder_stable =
  QCheck.Test.make ~count:200 ~name:"store digest is order-independent"
    (QCheck.make field_list_gen) (fun fields ->
      let d1 = Store.digest_of_fields fields in
      let d2 = Store.digest_of_fields (List.rev fields) in
      String.length d1 = 32 && d1 = d2)

let test_digest_distinguishes =
  QCheck.Test.make ~count:200 ~name:"store digest separates field lists"
    (QCheck.make (QCheck.Gen.pair field_list_gen field_list_gen))
    (fun (f1, f2) ->
      let canon fields = List.sort compare fields in
      canon f1 = canon f2
      || Store.digest_of_fields f1 <> Store.digest_of_fields f2)

(* {1 Planner} *)

let corpus_kind_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Request.Slice);
        (1, return Request.Full);
        ( 3,
          map2
            (fun count seed ->
              Request.Random { count; seed = Int64.of_int seed })
            (int_range 1 150) (int_range 0 10_000) );
      ])

let campaign_spec_gen =
  QCheck.Gen.(
    map2
      (fun core corpus -> Request.Campaign { core; mitigations = []; corpus })
      (oneofl [ "boom"; "xiangshan" ])
      corpus_kind_gen)

let spec_arbitrary =
  QCheck.make campaign_spec_gen ~print:(fun spec ->
      Format.asprintf "%a" Request.pp_spec spec)

let test_planner_partitions =
  QCheck.Test.make ~count:60 ~name:"planner partitions the corpus exactly"
    spec_arbitrary (fun spec ->
      let corpus = Request.corpus_of spec in
      match Planner.plan spec with
      | Error e -> QCheck.Test.fail_reportf "plan failed: %s" e
      | Ok shards ->
        let recovered =
          List.concat_map
            (fun (s : Planner.shard) -> s.Planner.work.Request.cases)
            shards
        in
        let expected = List.map Request.case_desc_of_testcase corpus in
        List.length recovered = List.length expected
        && List.for_all2 Request.case_desc_equal recovered expected
        && (* indices are the merge order *)
        List.for_all2
          (fun (s : Planner.shard) i -> s.Planner.index = i)
          shards
          (List.init (List.length shards) Fun.id))

let test_planner_respects_cap =
  QCheck.Test.make ~count:60 ~name:"planner respects max_shard_cases"
    spec_arbitrary (fun spec ->
      match Planner.plan ~max_shard_cases:10 spec with
      | Error e -> QCheck.Test.fail_reportf "plan failed: %s" e
      | Ok shards ->
        List.for_all
          (fun (s : Planner.shard) ->
            List.length (s.Planner.work.Request.cases) <= 10)
          shards)

let test_planner_family_boundaries () =
  match
    Planner.plan
      (Request.Campaign
         { core = "boom"; mitigations = []; corpus = Request.Slice })
  with
  | Error e -> Alcotest.fail e
  | Ok shards ->
    Alcotest.(check int) "shards of the slice at the default cap" 15
      (List.length shards);
    List.iter
      (fun (s : Planner.shard) ->
        let cases = s.Planner.work.Request.cases in
        List.iter
          (fun (cd : Request.case_desc) ->
            Alcotest.(check string)
              "all cases of a grid shard share its family" s.Planner.family
              cd.Request.cd_path)
          cases)
      shards

let test_planner_digest_excludes_position () =
  (* The same slice submitted as part of two different requests (slice
     vs full corpus) must yield the same shard digests for the common
     prefix families, so verdicts transfer between jobs. *)
  let plan spec =
    match Planner.plan spec with Ok s -> s | Error e -> Alcotest.fail e
  in
  let slice =
    plan
      (Request.Campaign
         { core = "boom"; mitigations = []; corpus = Request.Slice })
  in
  let slice' =
    plan
      (Request.Campaign
         { core = "boom"; mitigations = []; corpus = Request.Slice })
  in
  List.iter2
    (fun (a : Planner.shard) (b : Planner.shard) ->
      Alcotest.(check string) "plan is deterministic" a.Planner.digest
        b.Planner.digest)
    slice slice';
  (* Mitigations change execution, so they must change every digest. *)
  let mitigated =
    plan
      (Request.Campaign
         { core = "boom"; mitigations = [ "flush-l1d" ]; corpus = Request.Slice })
  in
  List.iter2
    (fun (a : Planner.shard) (b : Planner.shard) ->
      Alcotest.(check bool) "mitigation changes the digest" false
        (a.Planner.digest = b.Planner.digest))
    slice mitigated

let test_planner_rejects_unknown () =
  (match
     Planner.plan
       (Request.Campaign
          { core = "pentium"; mitigations = []; corpus = Request.Slice })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown core accepted");
  match
    Planner.plan
      (Request.Campaign
         { core = "boom"; mitigations = [ "prayer" ]; corpus = Request.Slice })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mitigation accepted"

(* {1 Validation} *)

(* The out-of-range specs the engines would otherwise assert on inside a
   worker, each with the flag its message must name. *)
let bad_specs =
  let fuzz tweak =
    Request.Fuzz { core = "boom"; options = tweak Fuzz.Engine.default }
  in
  [
    ("--energy", fuzz (fun o -> { o with Fuzz.Engine.energy = 150 }));
    ("--batch", fuzz (fun o -> { o with Fuzz.Engine.batch = 0 }));
    ("--budget", fuzz (fun o -> { o with Fuzz.Engine.budget = -1 }));
    ( "--faults",
      Request.Inject { core = "boom"; faults = -1; seed = 1L; full = false } );
    ( "--random",
      Request.Campaign
        {
          core = "boom";
          mitigations = [];
          corpus = Request.Random { count = 0; seed = 1L };
        } );
  ]

let test_planner_rejects_bad_ranges () =
  List.iter
    (fun (flag, spec) ->
      match Planner.plan spec with
      | Ok _ -> Alcotest.failf "%s out of range accepted" flag
      | Error e ->
        Alcotest.(check bool) (e ^ " names " ^ flag) true (contains e flag))
    bad_specs

(* {1 Shard payloads} *)

(* Per core: the spec whose artifact the payloads assemble into, the
   real per-case results, and the one-shot artifact.  Taps are on, so
   the codec's wave stripping is exercised. *)
let payload_fixtures =
  lazy
    (let cases = List.filteri (fun i _ -> i < 6) (Teesec.Mitigation_eval.slice ()) in
     List.map
       (fun (core, config) ->
         let tapped () = Teesec.Snapshot.create ~wave:true config in
         let plan_list = Inject.Fault_plan.sample ~seed:0x5EEDL ~count:3 in
         let campaign =
           List.map (Teesec.Campaign.eval_case ~snapshots:(tapped ()) config) cases
         in
         let evals =
           List.map
             (Inject.Inject_campaign.eval_case ~snapshots:(tapped ()) config plan_list)
             cases
         in
         ( ( Request.Campaign { core; mitigations = []; corpus = Request.Slice },
             campaign,
             Teesec.Tables.table3_csv [ Teesec.Campaign.run config cases ] ),
           ( Request.Inject { core; faults = 3; seed = 0x5EEDL; full = false },
             evals,
             Inject.Robustness_report.to_json_string
               (Inject.Inject_campaign.run ~seed:0x5EEDL ~plans:3 config cases) ) ))
       [ ("boom", Config.boom); ("xiangshan", Config.xiangshan) ])

(* [items] cut into contiguous chunks at the positions in [cuts]. *)
let split cuts items =
  let cuts = List.sort_uniq compare cuts in
  let chunk i = List.length (List.filter (fun c -> c <= i) cuts) in
  List.init (List.length cuts + 1) (fun k ->
      List.filteri (fun i _ -> chunk i = k) items)

let payloads_roundtrip =
  QCheck.Test.make ~count:30
    ~name:"shard payloads round-trip and assemble to the one-shot bytes"
    QCheck.(
      triple bool bool (list_of_size (Gen.int_bound 5) (int_bound 6)))
    (fun (xiangshan, inject, cuts) ->
      let campaign, injection =
        List.nth (Lazy.force payload_fixtures) (if xiangshan then 1 else 0)
      in
      let check spec items ~encode ~decode ~strip expected =
        let chunks = split cuts items in
        List.for_all (fun chunk -> decode (encode chunk) = List.map strip chunk) chunks
        && Serve.Artifact.assemble spec (List.map encode chunks) = Ok expected
      in
      if inject then
        let spec, evals, expected = injection in
        check spec evals expected
          ~encode:Serve.Executor.encode_inject_evals
          ~decode:Serve.Executor.decode_inject_evals
          ~strip:(fun (e : Inject.Inject_campaign.case_eval) ->
            {
              e with
              Inject.Inject_campaign.ce_base =
                { e.Inject.Inject_campaign.ce_base with Teesec.Campaign.co_wave = "" };
            })
      else
        let spec, outcomes, expected = campaign in
        check spec outcomes expected
          ~encode:Serve.Executor.encode_campaign_outcomes
          ~decode:Serve.Executor.decode_campaign_outcomes
          ~strip:(fun (co : Teesec.Campaign.case_outcome) ->
            { co with Teesec.Campaign.co_wave = "" }))

(* {1 The daemon, end to end} *)

let daemon_config dir =
  let cfg =
    Daemon.default_config
      ~socket_path:(Filename.concat dir "teesec.sock")
      ~store_root:(Filename.concat dir "store")
  in
  { cfg with Daemon.backoff_base = 0.01; backoff_cap = 0.05 }

let with_daemon cfg f =
  let pid = Daemon.spawn cfg in
  let finally () =
    (try Unix.kill pid Sys.sigkill with _ -> ());
    try ignore (Unix.waitpid [] pid) with _ -> ()
  in
  Fun.protect ~finally (fun () ->
      match Client.connect_retry ~socket_path:cfg.Daemon.socket_path () with
      | Error e -> Alcotest.fail e
      | Ok client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let result = f client in
            (* Clean shutdown: the daemon exits and reaps its workers;
               the kill in [finally] then finds the pid already gone. *)
            (match Client.shutdown client with
            | Ok () -> ignore (Unix.waitpid [] pid)
            | Error _ -> ());
            result))

let slice_spec =
  Request.Campaign { core = "boom"; mitigations = []; corpus = Request.Slice }

let expected_slice_csv () =
  Teesec.Tables.table3_csv
    [ Teesec.Campaign.run ~jobs:1 Config.boom (Teesec.Mitigation_eval.slice ()) ]

let submit_and_fetch_full ?trace client spec =
  match Client.submit ?trace client spec with
  | Error e -> Alcotest.fail e
  | Ok js -> (
    match Client.results client js.Protocol.js_job with
    | Ok (Ok art) -> (js, art)
    | Ok (Error _) -> Alcotest.fail "results returned pending despite wait"
    | Error e -> Alcotest.fail e)

let submit_and_fetch client spec =
  let js, art = submit_and_fetch_full client spec in
  (js, art.Client.data)

let test_daemon_end_to_end () =
  let expected = expected_slice_csv () in
  with_temp_dir "serve_e2e" (fun dir ->
      let cfg = { (daemon_config dir) with Daemon.workers = 2 } in
      (* Cold run: everything executes. *)
      let hits_cold, executed_cold =
        with_daemon cfg (fun client ->
            Alcotest.(check bool)
              "handshake reports the build" true
              (Client.server_build client = Protocol.build_version);
            let js, data = submit_and_fetch client slice_spec in
            Alcotest.(check string) "cold artifact = one-shot" expected data;
            let st =
              match Client.status client with
              | Ok st -> st
              | Error e -> Alcotest.fail e
            in
            Alcotest.(check int)
              "every shard executed exactly once" js.Protocol.js_total
              st.Protocol.st_shards_executed;
            (js.Protocol.js_hits, st.Protocol.st_shards_executed))
      in
      Alcotest.(check int) "cold store has no hits" 0 hits_cold;
      Alcotest.(check bool) "cold run executed shards" true (executed_cold > 0);
      (* Warm run: a fresh daemon on the same store serves the request
         from verdicts alone — the resubmission executes zero shards. *)
      with_daemon cfg (fun client ->
          let js, data = submit_and_fetch client slice_spec in
          Alcotest.(check string) "warm artifact = one-shot" expected data;
          Alcotest.(check int) "every shard hits" js.Protocol.js_total
            js.Protocol.js_hits;
          let st =
            match Client.status client with
            | Ok st -> st
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int) "warm run executes nothing" 0
            st.Protocol.st_shards_executed))

(* The CLI's `watch --once` against a live daemon: one snapshot, exit 0.
   The subcommand body prints to real stdout, so the test redirects fd 1
   into a file around the in-process eval. *)
let test_watch_once_live_daemon () =
  with_temp_dir "serve_watch" (fun dir ->
      let cfg = daemon_config dir in
      let out =
        with_daemon cfg (fun client ->
            let _js, _data = submit_and_fetch client slice_spec in
            let out_file = Filename.concat dir "watch.out" in
            let fd =
              Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
            in
            let saved = Unix.dup Unix.stdout in
            flush stdout;
            Format.print_flush ();
            Unix.dup2 fd Unix.stdout;
            Unix.close fd;
            let code, err =
              Fun.protect
                ~finally:(fun () ->
                  flush stdout;
                  Format.print_flush ();
                  Unix.dup2 saved Unix.stdout;
                  Unix.close saved)
                (fun () ->
                  Cli.Teesec_cmds.eval_captured
                    ~argv:
                      [|
                        "teesec"; "watch"; "--once"; "--socket";
                        cfg.Daemon.socket_path;
                      |])
            in
            Alcotest.(check int)
              (Printf.sprintf "watch --once exits 0 (stderr: %s)" err)
              0 code;
            let ic = open_in_bin out_file in
            let n = in_channel_length ic in
            let out = really_input_string ic n in
            close_in ic;
            out)
      in
      Alcotest.(check bool) "snapshot reports workers" true
        (contains out "workers");
      Alcotest.(check bool) "snapshot lists the completed job" true
        (contains out "campaign");
      Alcotest.(check bool) "the job shows as complete" true
        (contains out "complete"))

(* submit --wave end to end: the wave payload rides the shard_obs side
   channel through the daemon, unframes cleanly, renders as VCD, and the
   verdict artifact stays byte-identical to an unwaved submission. *)
let test_daemon_wave_artifact () =
  let expected = expected_slice_csv () in
  with_temp_dir "serve_wave" (fun dir ->
      let cfg = { (daemon_config dir) with Daemon.workers = 2 } in
      with_daemon cfg (fun client ->
          let js =
            match Client.submit ~wave:true client slice_spec with
            | Ok js -> js
            | Error e -> Alcotest.fail e
          in
          let art =
            match Client.results client js.Protocol.js_job with
            | Ok (Ok art) -> art
            | Ok (Error _) -> Alcotest.fail "results returned pending"
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check string) "waved artifact = one-shot" expected
            art.Client.data;
          let blob =
            match art.Client.wave with
            | Some blob -> blob
            | None -> Alcotest.fail "no wave payload on a waved job"
          in
          let streams =
            match Wave.Event.unframe blob with
            | Ok streams -> streams
            | Error e -> Alcotest.failf "wave payload corrupt: %s" e
          in
          Alcotest.(check bool) "one stream per test case" true
            (List.length streams
            = List.length (Teesec.Mitigation_eval.slice ()));
          (match Result.bind (Wave.Vcd.render streams) Wave.Vcd.validate with
          | Ok stats ->
            Alcotest.(check bool) "VCD has signals and changes" true
              (stats.Wave.Vcd.signals > 0 && stats.Wave.Vcd.changes > 0)
          | Error e -> Alcotest.failf "daemon wave VCD invalid: %s" e);
          ());
      (* A fresh daemon on the same store: the unwaved resubmission is a
         full store hit (waves never enter the store) and returns the
         byte-identical artifact with no wave payload. *)
      with_daemon cfg (fun client ->
          let js2, art2 = submit_and_fetch_full client slice_spec in
          Alcotest.(check int) "warm resubmission hits the store"
            js2.Protocol.js_total js2.Protocol.js_hits;
          Alcotest.(check string) "artifact byte-identical without wave"
            expected art2.Client.data;
          Alcotest.(check bool) "no wave on an unwaved submission" true
            (art2.Client.wave = None)))

let test_daemon_worker_crash_recovery () =
  let expected = expected_slice_csv () in
  with_temp_dir "serve_crash" (fun dir ->
      let cfg =
        { (daemon_config dir) with Daemon.workers = 1; test_crash_assignments = 2 }
      in
      with_daemon cfg (fun client ->
          let _, data = submit_and_fetch client slice_spec in
          Alcotest.(check string)
            "artifact unaffected by worker crashes" expected data;
          match Client.status client with
          | Error e -> Alcotest.fail e
          | Ok st ->
            Alcotest.(check bool)
              "crashed workers were respawned" true
              (st.Protocol.st_worker_restarts >= 2)))

let test_daemon_poisons_doomed_shards () =
  with_temp_dir "serve_poison" (fun dir ->
      (* Enough instructed crashes that the first shard exhausts its
         retry budget: the job must fail, not hang. *)
      let cfg =
        {
          (daemon_config dir) with
          Daemon.workers = 1;
          max_retries = 2;
          test_crash_assignments = 1000;
        }
      in
      with_daemon cfg (fun client ->
          match Client.submit client slice_spec with
          | Error e -> Alcotest.fail e
          | Ok js -> (
            match Client.results client js.Protocol.js_job with
            | Ok (Ok _) -> Alcotest.fail "doomed job produced an artifact"
            | Ok (Error _) -> Alcotest.fail "waited results returned pending"
            | Error reason ->
              Alcotest.(check bool) "failure names poisoning" true
                (contains reason "poisoned"))))

(* A bad spec is answered at submit time: the planner rejects it, so no
   worker is ever handed one (and none crashes on it). *)
let test_daemon_rejects_bad_specs () =
  with_temp_dir "serve_bad" (fun dir ->
      let cfg = { (daemon_config dir) with Daemon.workers = 1 } in
      with_daemon cfg (fun client ->
          List.iter
            (fun (flag, spec) ->
              match Client.submit client spec with
              | Ok _ -> Alcotest.failf "daemon accepted %s out of range" flag
              | Error e ->
                Alcotest.(check bool) (e ^ " names " ^ flag) true (contains e flag))
            bad_specs;
          match Client.status client with
          | Error e -> Alcotest.fail e
          | Ok st ->
            Alcotest.(check int) "no worker restarted" 0
              st.Protocol.st_worker_restarts;
            Alcotest.(check int) "no shard executed" 0
              st.Protocol.st_shards_executed))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let found_cases csv =
  String.split_on_char '\n' csv
  |> List.filter_map (fun line ->
         match String.split_on_char ',' line with
         | [ case; _; "true"; _ ] -> Some case
         | _ -> None)

(* The paper's §8 tagging countermeasure resolves through the one
   mitigation table on both transports: on the BOOM slice it removes
   exactly the cases the mitigations table credits it with, M1 and M2,
   and the service serves the one-shot CSV byte for byte. *)
let test_tag_bpu_hpc_both_transports () =
  with_temp_dir "serve_tag" (fun dir ->
      let cfg = daemon_config dir in
      let eval argv =
        let code, err = Cli.Teesec_cmds.eval_captured ~argv in
        Alcotest.(check int)
          (Printf.sprintf "%s exits 0 (%s)" argv.(1) err)
          0 code
      in
      let oneshot = Filename.concat dir "oneshot.csv" in
      let served = Filename.concat dir "served.csv" in
      eval
        [| "teesec"; "campaign"; "-m"; "tag-bpu-hpc"; "--quiet"; "--csv"; oneshot |];
      with_daemon cfg (fun _ ->
          eval
            [|
              "teesec"; "submit"; "--socket"; cfg.Daemon.socket_path; "-m";
              "tag-bpu-hpc"; "--wait"; "--out"; served;
            |]);
      let csv = read_file oneshot in
      Alcotest.(check string) "submit artifact = one-shot CSV" csv
        (read_file served);
      let clean = found_cases (expected_slice_csv ()) in
      let lost = List.filter (fun c -> not (List.mem c (found_cases csv))) clean in
      Alcotest.(check (list string)) "loses exactly M1 and M2" [ "M1"; "M2" ] lost;
      let row = Teesec.Mitigation_eval.evaluate Config.boom in
      Alcotest.(check (list string)) "as the mitigations table's row shows" lost
        (List.filter_map
           (fun case ->
             match
               Teesec.Mitigation_eval.effective row ~case
                 ~mitigation:Uarch.Mitigation.Tag_bpu_hpc
             with
             | Some true -> Some (Teesec.Case.to_string case)
             | Some false | None -> None)
           Teesec.Case.all))

(* {1 Merged traces} *)

(* A hand-rolled Chrome-trace reader on top of the lib/obs JSON parser:
   each event becomes (ph, name, pid, tid, process_name-arg). *)
let parse_trace json =
  let doc =
    match Obs.Json.parse json with
    | Ok d -> d
    | Error e -> Alcotest.fail ("trace JSON: " ^ e)
  in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "trace has no traceEvents array"
  in
  List.map
    (fun ev ->
      let str n = Option.bind (Obs.Json.member n ev) Obs.Json.to_string in
      let num n = Option.bind (Obs.Json.member n ev) Obs.Json.to_number in
      let req o what =
        match o with
        | Some v -> v
        | None -> Alcotest.fail ("trace event missing " ^ what)
      in
      let ph = req (str "ph") "ph" in
      let name = req (str "name") "name" in
      let pid = int_of_float (req (num "pid") "pid") in
      let tid = int_of_float (req (num "tid") "tid") in
      if ph <> "M" then ignore (req (num "ts") "ts");
      let pname =
        if ph = "M" && name = "process_name" then
          Option.bind (Obs.Json.member "args" ev) (fun a ->
              Option.bind (Obs.Json.member "name" a) Obs.Json.to_string)
        else None
      in
      (ph, name, pid, tid, pname))
    events

(* Begin/end spans must balance as a stack per (pid, tid) track. *)
let check_balanced events =
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (ph, name, pid, tid, _) ->
      let key = (pid, tid) in
      let s =
        match Hashtbl.find_opt stacks key with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks key s;
          s
      in
      match ph with
      | "B" -> s := name :: !s
      | "E" -> (
        match !s with
        | top :: rest when top = name -> s := rest
        | _ ->
          Alcotest.fail
            (Printf.sprintf "unbalanced E %S (pid %d tid %d)" name pid tid))
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (pid, tid) s ->
      if !s <> [] then
        Alcotest.fail (Printf.sprintf "unclosed span (pid %d tid %d)" pid tid))
    stacks

let test_daemon_merged_trace () =
  let expected = expected_slice_csv () in
  with_temp_dir "serve_trace" (fun dir ->
      let cfg = { (daemon_config dir) with Daemon.workers = 2 } in
      with_daemon cfg (fun client ->
          let _, art = submit_and_fetch_full ~trace:true client slice_spec in
          Alcotest.(check string) "traced artifact = one-shot" expected
            art.Client.data;
          let json =
            match art.Client.trace with
            | Some j -> j
            | None -> Alcotest.fail "no trace returned"
          in
          let events = parse_trace json in
          check_balanced events;
          let daemon_pid = ref None in
          let workers = Hashtbl.create 4 in
          List.iter
            (fun (_, _, pid, _, pname) ->
              match pname with
              | Some "teesec-daemon" -> daemon_pid := Some pid
              | Some n
                when String.length n >= 13
                     && String.sub n 0 13 = "teesec-worker" ->
                Hashtbl.replace workers pid ()
              | _ -> ())
            events;
          let daemon_pid =
            match !daemon_pid with
            | Some p -> p
            | None -> Alcotest.fail "no daemon process metadata"
          in
          Alcotest.(check bool) "spans from at least two worker pids" true
            (Hashtbl.length workers >= 2);
          Hashtbl.iter
            (fun wpid () ->
              Alcotest.(check bool)
                (Printf.sprintf "worker %d contributed a shard span" wpid)
                true
                (List.exists
                   (fun (ph, name, pid, _, _) ->
                     ph = "B" && name = "shard" && pid = wpid)
                   events))
            workers;
          List.iter
            (fun want ->
              Alcotest.(check bool) (want ^ " instant present") true
                (List.exists
                   (fun (ph, name, pid, _, _) ->
                     ph = "i" && name = want && pid = daemon_pid)
                   events))
            [ "submit"; "dispatch"; "job_done" ];
          List.iter
            (fun (_, name, pid, _, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "pid of %S is a declared process" name)
                true
                (pid = daemon_pid || Hashtbl.mem workers pid))
            events;
          match Client.status client with
          | Error e -> Alcotest.fail e
          | Ok st ->
            let spans =
              List.length
                (List.filter
                   (fun (ph, name, _, _, _) -> ph = "B" && name = "shard")
                   events)
            in
            Alcotest.(check int) "one shard span per executed shard"
              st.Protocol.st_shards_executed spans))

(* Tracing must not perturb verdicts: cold runs with tracing on and off
   (separate stores, so neither short-circuits through the other's
   verdicts) produce byte-identical artifacts at several worker
   counts. *)
let test_trace_does_not_perturb_artifacts () =
  let expected = expected_slice_csv () in
  List.iter
    (fun workers ->
      let run ~trace suffix =
        with_temp_dir ("serve_diff_" ^ suffix) (fun dir ->
            let cfg = { (daemon_config dir) with Daemon.workers = workers } in
            with_daemon cfg (fun client ->
                let _, art = submit_and_fetch_full ~trace client slice_spec in
                art.Client.data))
      in
      let off = run ~trace:false "off" in
      let on = run ~trace:true "on" in
      Alcotest.(check string)
        (Printf.sprintf "workers=%d: untraced artifact = one-shot" workers)
        expected off;
      Alcotest.(check string)
        (Printf.sprintf "workers=%d: traced artifact byte-identical" workers)
        off on)
    [ 1; 4 ]

let test_daemon_rejects_protocol_mismatch () =
  with_temp_dir "serve_proto" (fun dir ->
      let cfg = daemon_config dir in
      let pid = Daemon.spawn cfg in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        (fun () ->
          (* Wait for the socket with a well-behaved client first. *)
          (match Client.connect_retry ~socket_path:cfg.Daemon.socket_path () with
          | Ok c -> Client.close c
          | Error e -> Alcotest.fail e);
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX cfg.Daemon.socket_path);
              Protocol.write_frame fd
                (Protocol.encode_client_msg
                   (Protocol.Hello { proto = 999; build = "future" }));
              match Protocol.read_frame fd with
              | None -> Alcotest.fail "no handshake reply"
              | Some frame -> (
                match Protocol.decode_server_msg frame with
                | Protocol.Hello_err reason ->
                  Alcotest.(check bool) "reason names both versions" true
                    (contains reason "999"
                    && contains reason (string_of_int Protocol.protocol_version))
                | _ -> Alcotest.fail "mismatched client not rejected"));
          (* And the daemon survives to serve matching clients. *)
          match Client.connect ~socket_path:cfg.Daemon.socket_path with
          | Error e -> Alcotest.fail e
          | Ok client ->
            (match Client.ping client with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            (match Client.shutdown client with
            | Ok () -> ignore (Unix.waitpid [] pid)
            | Error _ -> ());
            Client.close client))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "codec",
        [
          quick "primitive round-trips" test_codec_primitives;
          quick "spec round-trips" test_spec_roundtrip;
          quick "message round-trips" test_message_roundtrips;
          quick "worker messages and obs deltas round-trip"
            test_worker_message_roundtrips;
          quick "trailing bytes rejected" test_decode_rejects_trailing;
        ] );
      ("framing", [ quick "frames round-trip a socketpair" test_framing ]);
      ( "store",
        [
          quick "put/get/evict round-trip" test_store_roundtrip;
          quick "corrupt objects are misses" test_store_corrupt_is_miss;
          qcheck test_digest_reorder_stable;
          qcheck test_digest_distinguishes;
        ] );
      ( "planner",
        [
          qcheck test_planner_partitions;
          qcheck test_planner_respects_cap;
          quick "grid shards stay inside one family"
            test_planner_family_boundaries;
          quick "digests are positional-independent and config-sensitive"
            test_planner_digest_excludes_position;
          quick "unknown cores and mitigations rejected"
            test_planner_rejects_unknown;
          quick "out-of-range parameters rejected, naming the flag"
            test_planner_rejects_bad_ranges;
        ] );
      ("differential", [ qcheck payloads_roundtrip ]);
      ( "daemon",
        [
          quick "end to end, cold then warm store" test_daemon_end_to_end;
          quick "watch --once against a live daemon" test_watch_once_live_daemon;
          quick "submit --wave returns loadable waveforms"
            test_daemon_wave_artifact;
          quick "worker crash recovery" test_daemon_worker_crash_recovery;
          quick "doomed shards poison the job" test_daemon_poisons_doomed_shards;
          quick "bad specs rejected at submit, no worker restarted"
            test_daemon_rejects_bad_specs;
          quick "campaign -m tag-bpu-hpc: one-shot CSV = submit artifact"
            test_tag_bpu_hpc_both_transports;
          quick "protocol mismatch rejected at handshake"
            test_daemon_rejects_protocol_mismatch;
        ] );
      ( "tracing",
        [
          quick "merged trace: balanced, clock-aligned, every worker pid"
            test_daemon_merged_trace;
          quick "tracing does not perturb artifacts (workers 1 and 4)"
            test_trace_does_not_perturb_artifacts;
        ] );
    ]
