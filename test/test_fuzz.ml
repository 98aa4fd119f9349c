(* Tests for the coverage-guided fuzzing engine (lib/fuzz).

   The contracts under test are the ones the guided campaigns rely on:
   the edge encoding is a stable bijection, coverage is monotone under
   corpus union and invariant under permutation, the engine with the
   mutation energy forced to zero degenerates to exactly
   [Fuzzer.random_corpus], reports are byte-identical across job counts,
   and corpus distillation is deterministic. *)

open Teesec
module Config = Uarch.Config
module Edge = Simlog.Edge
module Exec_context = Simlog.Exec_context
module Bitmap = Fuzz.Bitmap
module Distill = Fuzz.Distill
module Engine = Fuzz.Engine
module Observe = Fuzz.Observe
module Corpus_io = Fuzz.Corpus_io
module Fuzz_report = Fuzz.Fuzz_report

(* {1 Edge encoding} *)

let test_edge_index_roundtrip () =
  for i = 0 to Edge.count - 1 do
    let e = Edge.of_index i in
    Alcotest.(check int)
      (Printf.sprintf "index (of_index %d)" i)
      i (Edge.index e)
  done;
  Alcotest.check_raises "of_index rejects count" (Invalid_argument "Edge.of_index")
    (fun () -> ignore (Edge.of_index Edge.count))

let test_edge_of_log_nonempty () =
  (* A real execution exercises at least one edge, and every index is in
     range. *)
  let tc =
    Assembler.assemble ~id:0 Access_path.Exp_acc_enc_l1 ~params:Params.default
  in
  let outcome = Runner.run Config.boom tc in
  let edges = Edge.of_log outcome.Runner.log in
  Alcotest.(check bool) "some edges observed" true (edges <> []);
  List.iter
    (fun (e, count) ->
      let i = Edge.index e in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < Edge.count);
      Alcotest.(check bool) "positive hit count" true (count >= 1))
    edges

(* {1 Continued walks (qcheck)}

   A log of writes, mode switches and snapshots, marked at a random
   record (and optionally marked again later, so the walk's mark is a
   strict prefix of the log's): continuing the prefix's walk over the
   records after the mark must give exactly [of_log] of the whole log. *)

let ctx_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            Exec_context.Host Riscv.Priv.User; Exec_context.Host Riscv.Priv.Supervisor;
            Exec_context.Host Riscv.Priv.Machine; Exec_context.Monitor;
          ];
        map (fun i -> Exec_context.Enclave i) (int_range 0 3);
      ])

let event_gen =
  QCheck.Gen.(
    let entries = list_size (int_range 0 3) (map Simlog.Log.entry int64) in
    frequency
      [
        ( 4,
          triple (oneofl Simlog.Structure.all) (oneofl Simlog.Log.all_origins) entries
          >|= fun (structure, origin, entries) ->
          Simlog.Log.Write { structure; origin; entries } );
        ( 2,
          pair ctx_gen ctx_gen >|= fun (from_ctx, to_ctx) ->
          Simlog.Log.Mode_switch { from_ctx; to_ctx } );
        ( 1,
          pair (oneofl Simlog.Structure.all) entries >|= fun (structure, entries) ->
          Simlog.Log.Snapshot { structure; entries } );
      ])

let marked_log_gen =
  QCheck.Gen.(
    list_size (int_range 0 40) (pair ctx_gen event_gen) >>= fun records ->
    let n = List.length records in
    triple (return records) (int_range 0 n) (opt (int_range 0 n)))

let continued_walk_equals_of_log =
  QCheck.Test.make ~name:"continued walk == of_log of the whole log" ~count:300
    (QCheck.make
       ~print:(fun (records, at, again) ->
         Printf.sprintf "%d records, marked at %d%s" (List.length records) at
           (match again with Some k -> Printf.sprintf ", again at %d" k | None -> ""))
       marked_log_gen)
    (fun (records, at, again) ->
      let log = Simlog.Log.create () in
      let prefix = ref None in
      List.iteri
        (fun i (ctx, event) ->
          if i = at then prefix := Some (Simlog.Log.mark log, Edge.walk log);
          if Some i = again && i > at then ignore (Simlog.Log.mark log);
          Simlog.Log.record log ~cycle:i ~ctx event)
        records;
      let mark, walk =
        match !prefix with
        | Some p -> p
        | None -> (Simlog.Log.mark log, Edge.walk log)
      in
      Edge.edges (Edge.continue walk log ~since:mark) = Edge.of_log log)

(* {1 Bitmap buckets} *)

let test_bitmap_buckets () =
  List.iter
    (fun (count, bucket) ->
      Alcotest.(check int) (Printf.sprintf "bucket %d" count) bucket
        (Bitmap.bucket count))
    [ (1, 0); (2, 1); (3, 2); (4, 3); (7, 3); (8, 4); (15, 4); (16, 5);
      (31, 5); (32, 6); (127, 6); (128, 7); (100_000, 7) ]

(* {1 Coverage properties (qcheck)} *)

(* An observation: (edge index, raw hit count) pairs as Observe.run
   produces them. *)
let obs_gen =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (pair (int_range 0 (Edge.count - 1)) (int_range 1 200)))

let corpus_gen = QCheck.Gen.(list_size (int_range 0 8) obs_gen)

let print_corpus corpus =
  String.concat "; "
    (List.map
       (fun obs ->
         "["
         ^ String.concat ","
             (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) obs)
         ^ "]")
       corpus)

let bitmap_of corpus =
  let t = Bitmap.create () in
  List.iter (fun obs -> ignore (Bitmap.add t obs)) corpus;
  t

let coverage_monotone_under_union =
  QCheck.Test.make ~name:"coverage monotone under corpus union" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> print_corpus a ^ " | " ^ print_corpus b)
       QCheck.Gen.(pair corpus_gen corpus_gen))
    (fun (a, b) ->
      let ba = bitmap_of a and bb = bitmap_of b in
      let bu = bitmap_of (a @ b) in
      Bitmap.covered_bits bu >= Bitmap.covered_bits ba
      && Bitmap.covered_bits bu >= Bitmap.covered_bits bb
      && Bitmap.covered_edges bu >= Bitmap.covered_edges ba
      && Bitmap.covered_edges bu >= Bitmap.covered_edges bb
      && Bitmap.equal bu (Bitmap.union ba bb))

let coverage_invariant_under_permutation =
  QCheck.Test.make ~name:"coverage invariant under corpus permutation"
    ~count:200
    (QCheck.make
       ~print:(fun (corpus, seed) ->
         Printf.sprintf "%s (shuffle seed %d)" (print_corpus corpus) seed)
       QCheck.Gen.(pair corpus_gen (int_range 0 1000)))
    (fun (corpus, seed) ->
      let shuffled =
        let st = Random.State.make [| seed |] in
        corpus
        |> List.map (fun x -> (Random.State.bits st, x))
        |> List.sort compare |> List.map snd
      in
      Bitmap.equal (bitmap_of corpus) (bitmap_of shuffled))

(* {1 Corpus edge cases} *)

let test_empty_corpus () =
  Alcotest.(check (list int)) "minimise []" [] (Distill.minimise []);
  Alcotest.(check (list int)) "minimise [[]]" [] (Distill.minimise [ [] ]);
  let r = Engine.run { Engine.default with Engine.budget = 0 } Config.boom in
  Alcotest.(check int) "budget 0 executes nothing" 0 r.Engine.executed;
  Alcotest.(check int) "no corpus entries" 0 r.Engine.corpus_entries;
  Alcotest.(check bool) "no discoveries" true (r.Engine.discoveries = []);
  Alcotest.(check bool) "full coverage not reached" true
    (r.Engine.cases_to_full_table3 = None)

let test_single_case_corpus () =
  let tc =
    Assembler.assemble ~id:0 Access_path.Exp_acc_enc_l1 ~params:Params.default
  in
  let obs = Observe.run Config.boom tc in
  Alcotest.(check (list int)) "single observation selected" [ 0 ]
    (Distill.minimise [ obs.Observe.edges ]);
  Alcotest.(check int) "apply keeps the single case" 1
    (List.length (Distill.apply [ obs.Observe.edges ] [ tc ]));
  (* Duplicating the observation must not grow the distilled set. *)
  Alcotest.(check (list int)) "duplicate adds nothing" [ 0 ]
    (Distill.minimise [ obs.Observe.edges; obs.Observe.edges ])

let test_distill_deterministic () =
  let r =
    Engine.run { Engine.default with Engine.budget = 60 } Config.boom
  in
  let footprints =
    List.map
      (fun tc -> (Observe.run Config.boom tc).Observe.edges)
      r.Engine.corpus_cases
  in
  let a = Distill.minimise footprints and b = Distill.minimise footprints in
  Alcotest.(check (list int)) "same input, same selection" a b;
  let kept = Distill.apply footprints r.Engine.corpus_cases in
  Alcotest.(check string) "distilled corpus renders identically"
    (Corpus_io.to_string kept)
    (Corpus_io.to_string kept);
  (* Union coverage is preserved by the distilled subset. *)
  let cover cases =
    let t = Bitmap.create () in
    List.iter
      (fun tc ->
        ignore (Bitmap.add t (Observe.run Config.boom tc).Observe.edges))
      cases;
    t
  in
  Alcotest.(check bool) "distillation preserves coverage" true
    (Bitmap.equal (cover r.Engine.corpus_cases) (cover kept))

(* {1 Corpus files} *)

let test_corpus_io_roundtrip () =
  let r =
    Engine.run { Engine.default with Engine.budget = 40 } Config.xiangshan
  in
  let s = Corpus_io.to_string r.Engine.corpus_cases in
  match Corpus_io.of_string s with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok cases ->
    Alcotest.(check string) "canonical encoding round-trips" s
      (Corpus_io.to_string cases);
    Alcotest.(check int) "same corpus size"
      (List.length r.Engine.corpus_cases)
      (List.length cases)

let test_corpus_io_errors () =
  (match Corpus_io.of_string "# teesec corpus v1\nnot-a-path 0 8 0 0x1\n" with
  | Ok _ -> Alcotest.fail "bogus path accepted"
  | Error e ->
    Alcotest.(check bool) "error names the line" true
      (Strutil.contains_substring ~needle:"line 2" e));
  match Corpus_io.of_string "# teesec corpus v1\n\n# comment\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "blank corpus should be empty"
  | Error e -> Alcotest.failf "blank lines rejected: %s" e

(* {1 Engine determinism}

   The jobs projection of the byte-identity harness (test/equiv.ml):
   report, saved corpus and progress stream. *)

let test_jobs_identical () =
  Equiv.row
    ~variants:(Equiv.across ~jobs:[ 1; 4 ] ())
    (Equiv.fuzz { Engine.default with Engine.seed = 42L; budget = 64; energy = 80 })
    Config.boom ()

let test_progress_stream_identical () =
  Equiv.row
    ~variants:(Equiv.across ~jobs:[ 1; 3 ] ())
    (Equiv.fuzz { Engine.default with Engine.seed = 7L; budget = 48 })
    Config.xiangshan ()

(* The satellite differential: with the mutation energy forced to zero
   the engine performs no seeding and no mutation, so its executed
   stream must be exactly [Fuzzer.random_corpus] at the same seed. *)
let energy_zero_degenerates_to_random =
  QCheck.Test.make ~name:"energy 0 == Fuzzer.random_corpus at equal seed"
    ~count:6
    (QCheck.make
       ~print:(fun (seed, budget) -> Printf.sprintf "seed=%d budget=%d" seed budget)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 24)))
    (fun (seed, budget) ->
      let seed = Int64.of_int seed in
      let r =
        Engine.run
          { Engine.default with Engine.seed = seed; budget; energy = 0 }
          Config.boom
      in
      let baseline = Fuzzer.random_corpus ~seed ~count:budget in
      Corpus_io.to_string r.Engine.executed_cases
      = Corpus_io.to_string baseline
      && List.equal String.equal
           (List.map Testcase.name r.Engine.executed_cases)
           (List.map Testcase.name baseline))

let test_seed_corpus_round_robin () =
  let seeds = Engine.seed_corpus () in
  let paths = Access_path.all in
  let first_round =
    List.filteri (fun i _ -> i < List.length paths) seeds
    |> List.map (fun tc -> tc.Testcase.path)
  in
  (* Every gadget family appears in the first |paths| seed entries. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Access_path.to_string p ^ " in first round")
        true
        (List.exists (fun q -> q = p) first_round))
    paths

let test_guided_beats_random () =
  (* The acceptance criterion at the bench seed: guided reaches full
     Table 3 in strictly fewer executed cases than blind random, on both
     cores, at exactly these counts.  Stopping on full coverage only
     truncates the run after that point, so the full 150-case budget
     reports the same counts. *)
  List.iter
    (fun (config, random, guided) ->
      let run energy =
        (Engine.run
           {
             Engine.default with
             Engine.seed = 0x5EEDL;
             budget = 150;
             energy;
             stop_on_full = true;
           }
           config)
          .Engine.cases_to_full_table3
      in
      Alcotest.(check (option int))
        (config.Config.name ^ ": random cases to full Table 3")
        (Some random) (run 0);
      Alcotest.(check (option int))
        (config.Config.name ^ ": guided cases to full Table 3")
        (Some guided) (run 80))
    [ (Config.boom, 66, 14); (Config.xiangshan, 32, 14) ]

let () =
  Alcotest.run "fuzz"
    [
      ( "edge",
        [
          Alcotest.test_case "index/of_index round-trip" `Quick
            test_edge_index_roundtrip;
          Alcotest.test_case "of_log on a real execution" `Quick
            test_edge_of_log_nonempty;
          QCheck_alcotest.to_alcotest continued_walk_equals_of_log;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bitmap_buckets;
          QCheck_alcotest.to_alcotest coverage_monotone_under_union;
          QCheck_alcotest.to_alcotest coverage_invariant_under_permutation;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "empty corpus" `Quick test_empty_corpus;
          Alcotest.test_case "single-case corpus" `Quick test_single_case_corpus;
          Alcotest.test_case "distillation deterministic" `Slow
            test_distill_deterministic;
          Alcotest.test_case "corpus file round-trip" `Slow
            test_corpus_io_roundtrip;
          Alcotest.test_case "corpus file errors" `Quick test_corpus_io_errors;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs=1 == jobs=4, byte-identical JSON" `Slow
            test_jobs_identical;
          Alcotest.test_case "progress stream identical across jobs" `Slow
            test_progress_stream_identical;
          QCheck_alcotest.to_alcotest energy_zero_degenerates_to_random;
          Alcotest.test_case "seed corpus is family round-robin" `Quick
            test_seed_corpus_round_robin;
          Alcotest.test_case "guided beats random at the bench seed" `Slow
            test_guided_beats_random;
        ] );
    ]
