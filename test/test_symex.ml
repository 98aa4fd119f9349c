(* Tests for the symbolic/concolic engine (lib/symex).

   The contracts under test are the ones the explorer's claims rest on:
   the interval x known-bits lattice is sound (join is an upper bound,
   meet and the ALU transfer function never lose members), the
   expression simplifier preserves the machine's own semantics, every
   solver witness concretely replays to the path that produced it
   through the shared lib/riscv semantics, path enumeration is
   deterministic across runs, and a fuzzing campaign seeded from the
   synthesised corpus reaches full Table 3 in no more cases than the
   guided baseline at equal seed and budget.  Replaying a witness from
   its scenario's captured base is checked against establishing the
   scenario on a fresh machine, witness by witness.  That the whole
   report is byte-identical across job counts and sinks is checked in
   test/test_equiv.ml. *)

open Riscv
module Domain = Symex.Domain
module Expr = Symex.Expr
module Solver = Symex.Solver
module Eval = Symex.Eval
module Explore = Symex.Explore
module Synthesize = Symex.Synthesize
module Symex_report = Symex.Symex_report
module Sbi = Tee.Sbi
module Sbi_paths = Tee.Sbi_paths
module Security_monitor = Tee.Security_monitor
module Config = Uarch.Config
module Machine = Uarch.Machine
module Edge = Simlog.Edge
module Engine = Fuzz.Engine
module Corpus_io = Fuzz.Corpus_io

(* {1 Generators} *)

let word_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            0L; 1L; (-1L); 2L; 63L; 64L; 0x8000_0000L; Int64.min_int;
            Int64.max_int; Int64.add Int64.min_int 1L;
          ];
        map Int64.of_int (int_range (-1024) 1024);
        int64;
      ])

let alu_gen =
  QCheck.Gen.oneofl
    Instr.[ Add; Sub; Xor; Or; And; Sll; Srl ]

(* A domain guaranteed to contain [x]: the constant itself, top, an
   interval with [x] as one bound, or known bits sampled from [x]'s own
   bit pattern.  The [Option.value] fallbacks never fire (the inputs are
   consistent by construction) but keep the generator total. *)
let around_gen x =
  QCheck.Gen.(
    int_bound 3 >>= fun shape ->
    match shape with
    | 0 -> return (Domain.const x)
    | 1 -> return Domain.top
    | 2 ->
      word_gen >|= fun r ->
      let lo = if Int64.compare x r <= 0 then x else r in
      let hi = if Int64.compare x r <= 0 then r else x in
      Option.value (Domain.of_interval ~lo ~hi) ~default:(Domain.const x)
    | _ ->
      word_gen >|= fun mask ->
      let zeros = Int64.logand (Int64.lognot x) mask in
      let ones = Int64.logand x mask in
      Option.value (Domain.of_bits ~zeros ~ones) ~default:(Domain.const x))

let member_domain_gen = QCheck.Gen.(word_gen >>= fun x -> around_gen x >|= fun d -> (x, d))

(* {1 Domain lattice laws} *)

let join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound (concretisation grows)"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair member_domain_gen member_domain_gen))
    (fun (((x, a), (y, b))) ->
      let j = Domain.join a b in
      Domain.mem x j && Domain.mem y j)

let meet_sound =
  QCheck.Test.make
    ~name:"meet is sound under concretisation (common members survive)"
    ~count:1000
    (QCheck.make QCheck.Gen.(word_gen >>= fun x -> pair (around_gen x) (around_gen x) >|= fun (a, b) -> (x, a, b)))
    (fun (x, a, b) ->
      match Domain.meet a b with
      | None -> false (* both contain x, so the meet cannot be empty *)
      | Some d -> Domain.mem x d)

let transfer_sound =
  QCheck.Test.make
    ~name:"transfer is sound w.r.t. Instr.eval_alu" ~count:1000
    (QCheck.make
       QCheck.Gen.(triple alu_gen member_domain_gen member_domain_gen))
    (fun (op, (x, a), (y, b)) ->
      Domain.mem (Instr.eval_alu op x y) (Domain.transfer op a b))

let candidates_sound =
  QCheck.Test.make
    ~name:"candidates are members and never empty" ~count:500
    (QCheck.make member_domain_gen)
    (fun ((_, d)) ->
      match Domain.candidates d with
      | [] -> false
      | cs -> List.for_all (fun c -> Domain.mem c d) cs)

let test_domain_normalisation () =
  (* Normalisation tightens the components against each other. *)
  (match Domain.of_bits ~zeros:Int64.min_int ~ones:0L with
  | Some d ->
    Alcotest.(check bool) "bit63 known-zero implies non-negative lo" true
      (Int64.compare d.Domain.lo 0L >= 0)
  | None -> Alcotest.fail "bit63-zero domain is non-empty");
  (match Domain.of_interval ~lo:5L ~hi:5L with
  | Some d ->
    Alcotest.(check bool) "singleton pins every bit" true
      (Int64.equal (Domain.unknown_bits d) 0L);
    Alcotest.(check bool) "as_const" true (Domain.as_const d = Some 5L)
  | None -> Alcotest.fail "singleton interval is non-empty");
  (* Contradictions are rejected. *)
  Alcotest.(check bool) "overlapping masks are empty" true
    (Domain.make ~lo:Int64.min_int ~hi:Int64.max_int ~zeros:1L ~ones:1L = None);
  Alcotest.(check bool) "inverted interval is empty" true
    (Domain.of_interval ~lo:1L ~hi:0L = None)

(* {1 Expression simplifier} *)

let rec expr_gen n =
  QCheck.Gen.(
    if n = 0 then
      oneof [ map Expr.const word_gen; map Expr.sym (int_bound 7) ]
    else
      oneof
        [
          map Expr.const word_gen;
          map Expr.sym (int_bound 7);
          (triple alu_gen (expr_gen (n - 1)) (expr_gen (n - 1))
           >|= fun (op, a, b) -> Expr.bin op a b);
        ])

let simplifier_sound =
  QCheck.Test.make
    ~name:"bin simplification preserves Instr.eval_alu semantics"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         triple
           (triple alu_gen (expr_gen 3) (expr_gen 3))
           (array_size (return 8) word_gen)
           unit))
    (fun ((op, a, b), args, ()) ->
      let env i = args.(i) in
      Int64.equal
        (Expr.eval ~env (Expr.bin op a b))
        (Instr.eval_alu op (Expr.eval ~env a) (Expr.eval ~env b)))

(* {1 Witness soundness through the shared lib/riscv semantics} *)

let scenario_call_gen =
  QCheck.Gen.(pair (oneofl Sbi_paths.scenarios) (oneofl Sbi.all))

let witness_replay_sound =
  QCheck.Test.make
    ~name:"every solver witness replays to its predicted path" ~count:49
    (QCheck.make scenario_call_gen)
    (fun (scenario, call) ->
      let m = Sbi_paths.model scenario call in
      let r = Eval.run m.Sbi_paths.program in
      r.Eval.paths <> []
      && List.for_all
           (fun (p : Eval.path) ->
             match Solver.concretize p.Eval.constraints with
             | None -> false (* every enumerated path must be satisfiable *)
             | Some args ->
               let env i = args.(i) in
               (* The witness satisfies the path condition... *)
               List.for_all (Expr.rel_holds ~env) p.Eval.constraints
               &&
               (* ...and concrete replay through the same Instr semantics
                  reaches the predicted leaf byte-for-byte. *)
               let (a0, a1), stop = Eval.concrete m.Sbi_paths.program ~args in
               stop = p.Eval.stop
               && Int64.equal a0 (Expr.eval ~env p.Eval.a0)
               && Int64.equal a1 (Expr.eval ~env p.Eval.a1))
           r.Eval.paths)

(* {1 Deterministic enumeration} *)

let path_fingerprint (p : Eval.path) =
  Printf.sprintf "%d|%s|%s|%s|%d" p.Eval.path_id
    (String.concat "" (List.map (fun b -> if b then "T" else "f") p.Eval.decisions))
    (String.concat ";" (List.map Expr.rel_to_string p.Eval.constraints))
    (Expr.to_string p.Eval.a1)
    p.Eval.steps

let test_enumeration_deterministic () =
  List.iter
    (fun scenario ->
      List.iter
        (fun call ->
          let m = Sbi_paths.model scenario call in
          let r1 = Eval.run m.Sbi_paths.program in
          let r2 = Eval.run m.Sbi_paths.program in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s stable" scenario.Sbi_paths.name
               (Sbi.to_string call))
            (List.map path_fingerprint r1.Eval.paths)
            (List.map path_fingerprint r2.Eval.paths))
        Sbi.all)
    Sbi_paths.scenarios

(* {1 The full exploration: acceptance-criteria level checks} *)

let full_report = lazy (Explore.run Config.boom)

let test_every_call_witnessed () =
  let report = Lazy.force full_report in
  Alcotest.(check bool) "not truncated at the default budget" false
    report.Explore.truncated;
  List.iter
    (fun call ->
      let witnessed =
        List.exists
          (fun (u : Explore.unit_report) ->
            u.Explore.call = call
            && List.exists (fun p -> p.Explore.witness <> None) u.Explore.paths)
          report.Explore.units
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s has a witness" (Sbi.to_string call))
        true witnessed)
    Sbi.all

let test_witnesses_validate () =
  let report = Lazy.force full_report in
  let t = report.Explore.totals in
  Alcotest.(check bool) "some paths" true (t.Explore.paths_total > 0);
  Alcotest.(check int) "every path witnessed" t.Explore.paths_total
    t.Explore.witnesses_total;
  Alcotest.(check int) "every witness replays (program level)"
    t.Explore.witnesses_total t.Explore.replay_ok_total;
  Alcotest.(check int) "every witness replays (monitor level)"
    t.Explore.witnesses_total t.Explore.monitor_ok_total;
  Alcotest.(check bool) "symex reaches paths the baseline vector misses" true
    (t.Explore.symex_only_total > 0);
  Alcotest.(check bool) "missing-validation findings surface" true
    (t.Explore.findings_total > 0);
  Alcotest.(check bool) "monitor replays feed the coverage map" true
    (t.Explore.edges_covered > 0)

(* {1 Forked replay against the fresh-machine oracle}

   Every witness of the full exploration, on both cores, is replayed
   through one base per scenario in the explorer's order, and each
   result must equal [establish] plus [run_host] on a fresh machine: the
   monitor's a0, the stop reason, the cycle count, the whole serialised
   log and the coverage edges. *)

let test_forked_replay_equals_fresh config () =
  let report = Explore.run config in
  let replayed = ref 0 in
  List.iter
    (fun (scenario : Sbi_paths.scenario) ->
      let base = Sbi_paths.base config scenario in
      let machine = Security_monitor.machine (Sbi_paths.monitor base) in
      List.iter
        (fun (u : Explore.unit_report) ->
          if u.Explore.scenario = scenario.Sbi_paths.name then
            List.iter
              (fun (p : Explore.path_report) ->
                match p.Explore.witness with
                | None -> ()
                | Some w ->
                  let label =
                    Printf.sprintf "%s/%s path %d" scenario.Sbi_paths.name
                      (Sbi.to_string u.Explore.call) p.Explore.path_id
                  in
                  let fork_stop = Sbi_paths.replay base w.Explore.args in
                  let sm = Sbi_paths.establish config scenario in
                  let fresh = Security_monitor.machine sm in
                  let fresh_stop =
                    Security_monitor.run_host sm (Sbi_paths.ecall_program w.Explore.args)
                  in
                  incr replayed;
                  Alcotest.(check int64) (label ^ ": a0")
                    (Machine.get_reg fresh Instr.a0) (Machine.get_reg machine Instr.a0);
                  Alcotest.(check string) (label ^ ": stop")
                    (Machine.stop_reason_to_string fresh_stop)
                    (Machine.stop_reason_to_string fork_stop);
                  Alcotest.(check int) (label ^ ": cycle") (Machine.cycle fresh)
                    (Machine.cycle machine);
                  Alcotest.(check bool) (label ^ ": log") true
                    (String.equal
                       (Simlog.Serialize.to_string (Machine.log fresh))
                       (Simlog.Serialize.to_string (Machine.log machine)));
                  let named = List.map (fun (e, c) -> (Edge.to_string e, c)) in
                  Alcotest.(check (list (pair string int))) (label ^ ": edges")
                    (named (Edge.of_log (Machine.log fresh)))
                    (named (Sbi_paths.edges base)))
              u.Explore.paths)
        report.Explore.units)
    Sbi_paths.scenarios;
  Alcotest.(check int) "every witness replayed"
    report.Explore.totals.Explore.witnesses_total !replayed

let test_max_paths_range () =
  List.iter
    (fun max_paths ->
      match Explore.run ~max_paths Config.boom with
      | _ -> Alcotest.failf "max_paths %d accepted" max_paths
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* The trace splits the run into one establishment per scenario and one
   replay per witness. *)
let test_trace_spans () =
  let obs = Obs.create ~clock:(Obs.Clock.fake ()) () in
  let (_ : Explore.t) = Explore.run ~obs Config.boom in
  let events =
    match Obs.tracer obs with
    | Some t -> Obs.Tracer.events t
    | None -> Alcotest.fail "active sink without a tracer"
  in
  let begun name =
    List.length
      (List.filter
         (fun (e : Obs.Tracer.event) -> e.Obs.Tracer.ph = Obs.Tracer.Begin && e.Obs.Tracer.name = name)
         events)
  in
  Alcotest.(check int) "one establishment per scenario" 7 (begun "symex/establish");
  Alcotest.(check int) "one replay per witness" 158 (begun "symex/replay")

(* {1 Corpus hand-off} *)

(* The witnesses lower to exactly 20 seed entries per core, and the
   emitted corpus loads back entry for entry. *)
let test_corpus_round_trip () =
  List.iter
    (fun report ->
      let report = Lazy.force report in
      let name = report.Explore.core in
      let seeds = Synthesize.testcases_of report in
      Alcotest.(check int) (name ^ ": corpus entries") 20 (List.length seeds);
      let path = Filename.temp_file "symex_corpus" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let n = Synthesize.emit report ~path in
          Alcotest.(check int) "emit count" (List.length seeds) n;
          match Corpus_io.load ~path with
          | Error msg -> Alcotest.failf "emitted corpus does not load: %s" msg
          | Ok loaded ->
            Alcotest.(check int) "entry count survives" (List.length seeds)
              (List.length loaded);
            List.iter2
              (fun (a : Teesec.Testcase.t) (b : Teesec.Testcase.t) ->
                Alcotest.(check string) "family survives"
                  (Teesec.Access_path.to_string a.Teesec.Testcase.path)
                  (Teesec.Access_path.to_string b.Teesec.Testcase.path))
              seeds loaded))
    [ full_report; lazy (Explore.run Config.xiangshan) ]

let test_seeded_fuzzing_differential () =
  (* The bench-seed differential: seeding the guided engine with the
     symex corpus must not delay full Table 3 coverage — the seeded
     stream's prefix is the unseeded one, so it reaches the full table
     in no more cases than the guided baseline at equal seed/budget. *)
  let report = Lazy.force full_report in
  let seeds = Synthesize.testcases_of report in
  let options = { Engine.default with Engine.budget = 150 } in
  let baseline = Engine.run options Config.boom in
  let seeded = Engine.run ~seeds options Config.boom in
  match
    ( baseline.Engine.cases_to_full_table3,
      seeded.Engine.cases_to_full_table3 )
  with
  | Some b, Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "seeded (%d) <= baseline (%d)" s b)
      true (s <= b);
    (* And the seeds are not dead weight: they widen coverage. *)
    Alcotest.(check bool) "seeded coverage >= baseline" true
      (seeded.Engine.edges_covered >= baseline.Engine.edges_covered)
  | None, _ -> Alcotest.fail "guided baseline did not reach full Table 3"
  | _, None -> Alcotest.fail "seeded campaign did not reach full Table 3"

let () =
  Alcotest.run "symex"
    [
      ( "domain",
        [
          QCheck_alcotest.to_alcotest join_upper_bound;
          QCheck_alcotest.to_alcotest meet_sound;
          QCheck_alcotest.to_alcotest transfer_sound;
          QCheck_alcotest.to_alcotest candidates_sound;
          Alcotest.test_case "normalisation" `Quick test_domain_normalisation;
        ] );
      ("expr", [ QCheck_alcotest.to_alcotest simplifier_sound ]);
      ( "eval",
        [
          QCheck_alcotest.to_alcotest witness_replay_sound;
          Alcotest.test_case "enumeration deterministic" `Quick
            test_enumeration_deterministic;
        ] );
      ( "explore",
        [
          Alcotest.test_case "every call witnessed" `Slow
            test_every_call_witnessed;
          Alcotest.test_case "witnesses validate both ways" `Slow
            test_witnesses_validate;
          Alcotest.test_case "max_paths below 1 is rejected" `Quick
            test_max_paths_range;
          Alcotest.test_case "trace: 7 establishments, 158 replays" `Slow
            test_trace_spans;
        ] );
      ( "fork",
        [
          Alcotest.test_case "BOOM: forked replay == fresh replay" `Slow
            (test_forked_replay_equals_fresh Config.boom);
          Alcotest.test_case "XiangShan: forked replay == fresh replay" `Slow
            (test_forked_replay_equals_fresh Config.xiangshan);
        ] );
      ( "corpus",
        [
          Alcotest.test_case "emitted corpus round-trips" `Slow
            test_corpus_round_trip;
          Alcotest.test_case "seeded fuzzing differential" `Slow
            test_seeded_fuzzing_differential;
        ] );
    ]
