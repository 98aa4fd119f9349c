(* Tests for the domain pool, the parallel campaign runner, and the
   indexed checker/secret-tracker hot paths.

   The contract under test is determinism: for any job count, the
   campaign must produce results bit-identical to the sequential run,
   and the indexed checker must agree finding-for-finding with the
   naive reference implementation on arbitrary logs. *)

open Teesec
module Pool = Parallel.Pool
module Config = Uarch.Config
module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context

(* {1 Pool} *)

let test_pool_map_order () =
  let input = Array.init 1000 (fun i -> i) in
  Pool.with_pool ~domains:3 (fun pool ->
      let out = Pool.map pool (fun x -> (x * 2) + 1) input in
      Alcotest.(check (array int))
        "id-ordered results"
        (Array.map (fun x -> (x * 2) + 1) input)
        out;
      (* A second round on the same pool, with a chunk size that does
         not divide the input length. *)
      let out = Pool.map ~chunk:7 pool string_of_int input in
      Alcotest.(check string) "first" "0" out.(0);
      Alcotest.(check string) "last" "999" out.(999))

let test_pool_run_all () =
  let counter = Atomic.make 0 in
  Pool.with_pool ~domains:4 (fun pool ->
      Pool.run_all pool
        (List.init 100 (fun _ -> fun () -> Atomic.incr counter)));
  Alcotest.(check int) "every task ran" 100 (Atomic.get counter)

let test_pool_empty_and_tiny () =
  Alcotest.(check (list int)) "empty" [] (Pool.parmap ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.parmap ~jobs:4 (fun x -> x * 3) [ 3 ]);
  (* More jobs than elements. *)
  Alcotest.(check (list int)) "jobs > n" [ 2; 4 ]
    (Pool.parmap ~jobs:16 (fun x -> x * 2) [ 1; 2 ]);
  (* jobs <= 1 degrades to List.map on the calling domain. *)
  Alcotest.(check (list int)) "jobs=1" [ 1; 2; 3 ]
    (Pool.parmap ~jobs:1 (fun x -> x) [ 1; 2; 3 ])

let test_pool_exception () =
  Alcotest.check_raises "first exception re-raised" (Failure "task 57")
    (fun () ->
      ignore
        (Pool.parmap ~jobs:2
           (fun x -> if x = 57 then failwith "task 57" else x)
           (List.init 100 (fun i -> i))));
  (* The pool survives a failing round: with_pool still shuts down. *)
  Alcotest.(check (list int)) "pool usable pattern" [ 0; 1 ]
    (Pool.parmap ~jobs:2 (fun x -> x) [ 0; 1 ])

(* {1 Strutil} *)

let naive_contains ~needle hay =
  let n = String.length needle and m = String.length hay in
  if n = 0 then true
  else
    let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
    at 0

let strutil_differential =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 4))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 24)))
  in
  QCheck.Test.make ~name:"contains_substring == naive reference" ~count:2000
    (QCheck.make ~print:(fun (n, h) -> Printf.sprintf "needle=%S hay=%S" n h) gen)
    (fun (needle, hay) ->
      Strutil.contains_substring ~needle hay = naive_contains ~needle hay)

let test_strutil_directed () =
  let check name expected needle hay =
    Alcotest.(check bool) name expected (Strutil.contains_substring ~needle hay)
  in
  check "empty needle" true "" "anything";
  check "empty both" true "" "";
  check "needle at end" true "bar" "foobar";
  check "overlapping prefix" true "aab" "aaab";
  check "longer than hay" false "aaaa" "aaa";
  check "absent" false "transient" "forwarded-from-store-buffer"

(* {1 Secret index} *)

let test_secret_index_newest_wins () =
  let t = Secret.create_tracker () in
  Secret.register_value t ~value:42L ~addr:0x1000L ~owner:Secret.Host_owner;
  Secret.register_value t ~value:42L ~addr:0x2000L ~owner:(Secret.Enclave_owner 1);
  (match Secret.find_by_value t 42L with
  | Some s ->
    Alcotest.(check int64) "newest registration wins" 0x2000L s.Secret.addr
  | None -> Alcotest.fail "registered value must be found");
  Alcotest.(check int) "count" 2 (Secret.count t);
  Alcotest.(check bool) "zero never registered" true
    (Secret.find_by_value t 0L = None)

let secret_index_differential =
  (* A random registration sequence; the indexed lookup must agree with
     a newest-first scan of the seeded list for every probed value. *)
  let gen = QCheck.Gen.(list_size (int_range 0 40) (int_range 0 9)) in
  QCheck.Test.make ~name:"find_by_value == newest-first scan" ~count:500
    (QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen)
    (fun picks ->
      let t = Secret.create_tracker () in
      List.iteri
        (fun i v ->
          Secret.register_value t ~value:(Int64.of_int v)
            ~addr:(Int64.of_int (0x1000 + (i * 8)))
            ~owner:(if i mod 2 = 0 then Secret.Host_owner else Secret.Sm_owner))
        picks;
      let newest_first = List.rev (Secret.all t) in
      List.for_all
        (fun probe ->
          let v = Int64.of_int probe in
          Secret.find_by_value t v
          = List.find_opt (fun (s : Secret.seeded) -> Int64.equal s.Secret.value v)
              newest_first)
        (List.init 11 (fun i -> i)))

(* {1 Indexed checker vs naive reference on randomized logs} *)

let host_u = Exec_context.Host Riscv.Priv.User
let host_s = Exec_context.Host Riscv.Priv.Supervisor

let notes =
  [|
    "";
    "transient";
    "transient load";
    "forwarded-from-store-buffer";
    "owner=enclave line";
    "owner=enclave id-tagged";
    "csrr hpmcounter4";
    "plain note";
  |]

let gen_record values =
  let open QCheck.Gen in
  let gen_ctx =
    oneofl
      [
        host_u; host_s; Exec_context.Enclave 0; Exec_context.Enclave 1;
        Exec_context.Enclave 2; Exec_context.Monitor;
      ]
  in
  let gen_structure = oneofl Structure.all in
  let gen_origin = oneofl Log.all_origins in
  let gen_entry =
    map3
      (fun slot data note -> Log.entry ~slot ~note data)
      (int_range 0 7)
      (map (fun i -> values.(i mod Array.length values)) (int_range 0 100))
      (map (fun i -> notes.(i mod Array.length notes)) (int_range 0 100))
  in
  let gen_entries = list_size (int_range 1 3) gen_entry in
  let gen_cycle = int_range 0 400 in
  let gen_event =
    frequency
      [
        (5, map2 (fun (s, o) e -> Log.Write { structure = s; entries = e; origin = o })
              (pair gen_structure gen_origin) gen_entries);
        (4, map2 (fun s e -> Log.Snapshot { structure = s; entries = e })
              gen_structure gen_entries);
        (2, map (fun pc -> Log.Commit { pc; instr = "nop" }) (oneofl [ 0x8000_0000L; 0x8000_0004L; 0x8800_0000L ]));
        (1, map2 (fun a b -> Log.Mode_switch { from_ctx = a; to_ctx = b }) gen_ctx gen_ctx);
        (1, map (fun pc -> Log.Exception_raised { cause = "fault"; pc }) (oneofl [ 0x8000_0000L; 0x8800_0000L ]));
      ]
  in
  map3 (fun cycle ctx event -> (cycle, ctx, event)) gen_cycle gen_ctx gen_event

let build_log specs =
  let log = Log.create () in
  List.iter (fun (cycle, ctx, event) -> Log.record log ~cycle ~ctx event) specs;
  log

(* Drawn per case: every secret takes one of four values, so values
   repeat across owners (enclaves 0-2, the monitor's, the host's) and a
   derived secret can carry a non-derived one's value. *)
let gen_tracker =
  QCheck.Gen.(list_size (int_range 0 6) (triple (int_range 0 3) (int_range 0 4) bool))

let pool_value i = Secret.value_for ~seed:(Int64.of_int (i + 1)) ~addr:0x8800_8000L

let tracker_of specs =
  let t = Secret.create_tracker () in
  List.iteri
    (fun n (v, owner, derived) ->
      let owner =
        match owner with
        | 0 | 1 | 2 -> Secret.Enclave_owner owner
        | 3 -> Secret.Sm_owner
        | _ -> Secret.Host_owner
      in
      let addr = Int64.of_int (0x8800_8000 + (8 * n)) in
      if derived then Secret.register_value t ~value:(pool_value v) ~addr ~owner
      else
        (* [register] hashes (seed, addr): seed [v + 1] at the pool's
           address yields [pool_value v] whatever the owner. *)
        ignore (Secret.register t ~seed:(Int64.of_int (v + 1)) ~addr:0x8800_8000L ~owner))
    specs;
  t

(* Writes of one value into one structure at one cycle through
   different origins: the residue-provenance tie rule picks the first. *)
let gen_tied_writes values =
  let open QCheck.Gen in
  map
    (fun ((cycle, ctx, structure), (value, origins)) ->
      List.map
        (fun origin ->
          ( cycle,
            ctx,
            Log.Write
              { structure; entries = [ Log.entry ~note:"tie" value ]; origin } ))
        origins)
    (pair
       (triple (int_range 0 60)
          (oneofl [ host_s; Exec_context.Enclave 0; Exec_context.Enclave 2 ])
          (oneofl [ Structure.Lfb; Structure.Reg_file; Structure.L1d_data ]))
       (pair (oneofa values) (list_size (int_range 2 3) (oneofl Log.all_origins))))

(* Trackers, logs and ties all drawn per case.  Cycles are drawn
   independently, so record order is deliberately not cycle-monotonic:
   the provenance and commit indexes must not assume sortedness. *)
let checker_differential =
  let values = Array.append (Array.init 4 pool_value) [| 0x1234L; 0x0L; 0xFFFFL |] in
  let gen_records =
    QCheck.Gen.(
      map List.concat
        (list_size (int_range 0 120)
           (frequency
              [ (6, map (fun r -> [ r ]) (gen_record values)); (1, gen_tied_writes values) ])))
  in
  QCheck.Test.make ~name:"indexed check == naive reference (random logs)" ~count:500
    (QCheck.make
       ~print:(fun (specs, records) ->
         Printf.sprintf "secrets %s; <log with %d records>"
           (String.concat ","
              (List.map
                 (fun (v, o, d) -> Printf.sprintf "(%d,%d,%b)" v o d)
                 specs))
           (List.length records))
       (QCheck.Gen.pair gen_tracker gen_records))
    (fun (specs, records) ->
      let tracker = tracker_of specs and log = build_log records in
      Checker.check log tracker = Checker.check_reference log tracker)

(* Both checkers take a commit's pc only from cycle -1 on: a commit at
   cycle -5 is no [last_pc] for a secret-valued write at -2, as
   [Log.last_commit_before] has it.  [Serialize] reads such logs. *)
let test_checker_negative_cycles () =
  let tracker = Secret.create_tracker () in
  let v = Secret.register tracker ~seed:1L ~addr:0x8800_8000L ~owner:(Secret.Enclave_owner 0) in
  let log =
    build_log
      [
        (-5, host_s, Log.Commit { pc = 0x8000_0000L; instr = "nop" });
        ( -2,
          host_s,
          Log.Write
            { structure = Structure.Lfb; entries = [ Log.entry v ]; origin = Log.Refill } );
      ]
  in
  let indexed = Checker.check log tracker in
  Alcotest.(check bool) "check == check_reference" true
    (indexed = Checker.check_reference log tracker);
  Alcotest.(check bool) "one finding, no last_pc" true
    (match indexed with [ f ] -> f.Checker.last_pc = None | _ -> false)

let test_checker_differential_real_logs () =
  (* The full 585-case corpus, each case's log as the campaign sees it
     (through a fresh snapshot engine, in corpus order as a jobs-1
     campaign runs it), on both cores.  The engine's prefix sharing over
     that run is pinned exactly: a change to cut keys, parameter
     dependencies or the grid moves these counts. *)
  List.iter
    (fun config ->
      let engine = Snapshot.create config in
      List.iter
        (fun tc ->
          let o = Runner.run ~snapshots:engine config tc in
          let indexed = Checker.check o.Runner.log o.Runner.tracker in
          let reference = Checker.check_reference o.Runner.log o.Runner.tracker in
          Alcotest.(check int)
            (Printf.sprintf "findings agree on %s/%s" config.Config.name (Testcase.name tc))
            (List.length reference) (List.length indexed);
          Alcotest.(check bool)
            (Printf.sprintf "identical findings on %s/%s" config.Config.name
               (Testcase.name tc))
            true
            (indexed = reference))
        (Fuzzer.corpus ());
      let s = Snapshot.stats engine in
      List.iter
        (fun (what, expected, actual) ->
          Alcotest.(check int) (config.Config.name ^ ": snapshot " ^ what)
            expected actual)
        [
          ("hits", 535, s.Snapshot.hits);
          ("misses", 50, s.Snapshot.misses);
          ("stores", 564, s.Snapshot.stores);
          ("restored gadgets", 894, s.Snapshot.restored_gadgets);
          ("replayed gadgets", 564, s.Snapshot.replayed_gadgets);
        ])
    [ Config.boom; Config.xiangshan ]

(* {1 Parallel campaign == sequential campaign} *)

let campaign_equal name (a : Campaign.result) (b : Campaign.result) =
  Alcotest.(check int) (name ^ ": total") a.Campaign.total_cases b.Campaign.total_cases;
  Alcotest.(check (list string))
    (name ^ ": found cases")
    (List.map Case.to_string a.Campaign.found)
    (List.map Case.to_string b.Campaign.found);
  Alcotest.(check int) (name ^ ": residue") a.Campaign.residue_warnings b.Campaign.residue_warnings;
  Alcotest.(check int) (name ^ ": cycles") a.Campaign.total_cycles b.Campaign.total_cycles;
  Alcotest.(check int) (name ^ ": log records") a.Campaign.total_log_records b.Campaign.total_log_records;
  List.iter2
    (fun (case_a, (sa : Campaign.case_stats)) (case_b, (sb : Campaign.case_stats)) ->
      Alcotest.(check string) (name ^ ": case id") (Case.to_string case_a) (Case.to_string case_b);
      Alcotest.(check bool) (name ^ ": found") sa.Campaign.found sb.Campaign.found;
      Alcotest.(check int) (name ^ ": testcases") sa.Campaign.testcases sb.Campaign.testcases;
      Alcotest.(check (option string))
        (name ^ ": first testcase")
        sa.Campaign.first_testcase sb.Campaign.first_testcase)
    a.Campaign.stats b.Campaign.stats

let run_campaign_pair config ~jobs testcases =
  let lines_of run =
    let lines = ref [] in
    let progress i n line = lines := Printf.sprintf "[%d/%d] %s" i n line :: !lines in
    let result = run ~progress in
    (result, List.rev !lines)
  in
  let seq, seq_lines =
    lines_of (fun ~progress -> Campaign.run ~progress config testcases)
  in
  let par, par_lines =
    lines_of (fun ~progress -> Campaign.run ~progress ~jobs config testcases)
  in
  campaign_equal (Printf.sprintf "%s jobs=%d" config.Config.name jobs) seq par;
  Alcotest.(check (list string))
    (Printf.sprintf "%s jobs=%d: progress stream" config.Config.name jobs)
    seq_lines par_lines

let test_campaign_full_corpus_boom () =
  run_campaign_pair Config.boom ~jobs:4 (Fuzzer.corpus ())

let test_campaign_full_corpus_xiangshan () =
  run_campaign_pair Config.xiangshan ~jobs:3 (Fuzzer.corpus ())

let test_campaign_matches_paper_parallel () =
  (* Table 3 must still match the paper when run in parallel. *)
  List.iter
    (fun config ->
      let r = Campaign.run_full ~jobs:2 config in
      Alcotest.(check bool)
        (config.Config.name ^ " matches Table 3 with jobs=2")
        true (Campaign.matches_paper r))
    [ Config.boom; Config.xiangshan ]

(* {1 Parallel mitigation / coverage / overhead determinism} *)

let test_mitigation_eval_jobs () =
  let seq = Mitigation_eval.evaluate Config.boom in
  let par = Mitigation_eval.evaluate ~jobs:2 Config.boom in
  Alcotest.(check bool) "identical verdicts" true (seq.Mitigation_eval.verdicts = par.Mitigation_eval.verdicts);
  Alcotest.(check bool) "identical baseline" true
    (seq.Mitigation_eval.baseline_found = par.Mitigation_eval.baseline_found)

let test_coverage_jobs () =
  let slice = Mitigation_eval.slice () in
  let seq = Coverage.measure Config.xiangshan slice in
  let par = Coverage.measure ~jobs:3 Config.xiangshan slice in
  Alcotest.(check bool) "identical coverage" true
    ({ seq with Coverage.config = seq.Coverage.config }
    = { par with Coverage.config = seq.Coverage.config })

let test_overhead_jobs () =
  let seq = Overhead.evaluate ~rounds:4 Config.boom in
  let par = Overhead.evaluate ~rounds:4 ~jobs:3 Config.boom in
  Alcotest.(check bool) "identical measurements" true
    (seq.Overhead.measurements = par.Overhead.measurements);
  Alcotest.(check int) "identical baseline" seq.Overhead.baseline_cycles
    par.Overhead.baseline_cycles

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves input order" `Quick test_pool_map_order;
          Alcotest.test_case "run_all executes every task" `Quick test_pool_run_all;
          Alcotest.test_case "empty/tiny/degenerate inputs" `Quick test_pool_empty_and_tiny;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_exception;
        ] );
      ( "strutil",
        [
          QCheck_alcotest.to_alcotest strutil_differential;
          Alcotest.test_case "directed cases" `Quick test_strutil_directed;
        ] );
      ( "secret-index",
        [
          Alcotest.test_case "newest registration wins" `Quick test_secret_index_newest_wins;
          QCheck_alcotest.to_alcotest secret_index_differential;
        ] );
      ( "checker",
        [
          QCheck_alcotest.to_alcotest checker_differential;
          Alcotest.test_case "commits before cycle -1" `Quick test_checker_negative_cycles;
          Alcotest.test_case "indexed == reference on real logs" `Slow
            test_checker_differential_real_logs;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "full corpus, BOOM, jobs=4 == sequential" `Slow
            test_campaign_full_corpus_boom;
          Alcotest.test_case "full corpus, XiangShan, jobs=3 == sequential" `Slow
            test_campaign_full_corpus_xiangshan;
          Alcotest.test_case "Table 3 still matches in parallel" `Slow
            test_campaign_matches_paper_parallel;
        ] );
      ( "jobs-determinism",
        [
          Alcotest.test_case "mitigation eval" `Slow test_mitigation_eval_jobs;
          Alcotest.test_case "coverage" `Quick test_coverage_jobs;
          Alcotest.test_case "overhead" `Quick test_overhead_jobs;
        ] );
    ]
