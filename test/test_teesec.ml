(* Tests for the TEESec framework modules: secrets, cases, access paths,
   the execution model and gadget contracts, the assembler, the fuzzer,
   the checker's classification logic, the plan and the table
   renderers. *)

open Teesec
module Config = Uarch.Config
module Mitigation = Uarch.Mitigation
module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context

let host_s = Exec_context.Host Riscv.Priv.Supervisor

(* {1 Secret} *)

let test_secret_tracing () =
  let t = Secret.create_tracker () in
  let v = Secret.register t ~seed:1L ~addr:0x8800_8000L ~owner:(Secret.Enclave_owner 0) in
  Alcotest.(check bool) "nonzero" false (Int64.equal v 0L);
  (match Secret.find_by_value t v with
  | Some s ->
    Alcotest.(check int64) "traced back to address" 0x8800_8000L s.Secret.addr
  | None -> Alcotest.fail "value should trace back");
  Alcotest.(check bool) "unknown value" true (Secret.find_by_value t 0x1234L = None);
  (* Same (seed, addr) is deterministic; different seeds differ. *)
  Alcotest.(check int64) "deterministic" v
    (Secret.value_for ~seed:1L ~addr:0x8800_8000L);
  Alcotest.(check bool) "seed-dependent" false
    (Int64.equal v (Secret.value_for ~seed:2L ~addr:0x8800_8000L))

let test_secret_register_line () =
  let t = Secret.create_tracker () in
  let seeded = Secret.register_line t ~seed:7L ~line_addr:0x8800_8000L
      ~owner:(Secret.Enclave_owner 0) in
  Alcotest.(check int) "eight words" 8 (List.length seeded);
  Alcotest.(check int) "all tracked" 8 (Secret.count t);
  let values = List.map (fun (s : Secret.seeded) -> s.Secret.value) seeded in
  Alcotest.(check int) "distinct values" 8 (List.length (List.sort_uniq compare values));
  List.iteri
    (fun i (s : Secret.seeded) ->
      Alcotest.(check int64) "addresses ascend"
        (Int64.add 0x8800_8000L (Int64.of_int (i * 8)))
        s.Secret.addr)
    seeded

let test_secret_authorization () =
  let check owner ctx expected =
    Alcotest.(check bool)
      (Secret.owner_to_string owner ^ " vs " ^ Exec_context.to_string ctx)
      expected
      (Secret.authorized owner ctx)
  in
  check (Secret.Enclave_owner 0) (Exec_context.Enclave 0) true;
  check (Secret.Enclave_owner 0) (Exec_context.Enclave 1) false;
  check (Secret.Enclave_owner 0) host_s false;
  check (Secret.Enclave_owner 0) Exec_context.Monitor true;
  check Secret.Sm_owner host_s false;
  check Secret.Sm_owner (Exec_context.Enclave 0) false;
  check Secret.Sm_owner Exec_context.Monitor true;
  check Secret.Host_owner host_s true;
  check Secret.Host_owner (Exec_context.Enclave 0) false

let test_secret_derived_flag () =
  let t = Secret.create_tracker () in
  Secret.register_value t ~value:0xABL ~addr:0x8800_8000L ~owner:(Secret.Enclave_owner 0);
  (match Secret.all t with
  | [ s ] -> Alcotest.(check bool) "derived marked" true s.Secret.derived
  | _ -> Alcotest.fail "one entry expected");
  (* Zero-valued derived secrets are dropped (they would match
     everything). *)
  Secret.register_value t ~value:0L ~addr:0x8800_8008L ~owner:(Secret.Enclave_owner 0);
  Alcotest.(check int) "zero not registered" 1 (Secret.count t)

(* A capture keeps only the seeded list; a restore rebuilds the value
   index from it, so the newest registration at capture time wins again,
   whatever was registered after the capture. *)
let test_secret_restore_capture () =
  let addr_of t v = Option.map (fun s -> s.Secret.addr) (Secret.find_by_value t v) in
  let t = Secret.create_tracker () in
  Secret.register_value t ~value:7L ~addr:0x100L ~owner:Secret.Host_owner;
  Secret.register_value t ~value:7L ~addr:0x200L ~owner:Secret.Sm_owner;
  let c = Secret.capture_tracker t in
  Secret.register_value t ~value:7L ~addr:0x300L ~owner:(Secret.Enclave_owner 1);
  Secret.register_value t ~value:9L ~addr:0x400L ~owner:(Secret.Enclave_owner 1);
  Alcotest.(check (option int64)) "live: the newest registration" (Some 0x300L) (addr_of t 7L);
  let u = Secret.create_tracker () in
  Secret.register_value u ~value:9L ~addr:0x500L ~owner:Secret.Host_owner;
  List.iter
    (fun (what, into) ->
      Secret.restore_tracker c ~into;
      Alcotest.(check (option int64)) (what ^ ": newest at capture time") (Some 0x200L)
        (addr_of into 7L);
      Alcotest.(check (option int64)) (what ^ ": later values are gone") None (addr_of into 9L);
      Alcotest.(check int) (what ^ ": count") 2 (Secret.count into);
      Alcotest.(check (list int64)) (what ^ ": registrations, oldest first")
        [ 0x100L; 0x200L ]
        (List.map (fun s -> s.Secret.addr) (Secret.all into)))
    [ ("into the source", t); ("into another tracker", u) ]

(* {1 Case} *)

let test_case_metadata () =
  Alcotest.(check int) "ten cases" 10 (List.length Case.all);
  Alcotest.(check int) "eight data cases" 8
    (List.length (List.filter (fun c -> Case.principle c = Case.P1) Case.all));
  Alcotest.(check int) "two metadata cases" 2
    (List.length (List.filter (fun c -> Case.principle c = Case.P2) Case.all));
  (* Table 3 shape: BOOM misses only D8; XiangShan misses D1-D3. *)
  let found_on core = List.filter (fun c -> Case.expected c core) Case.all in
  Alcotest.(check int) "BOOM finds 9" 9 (List.length (found_on Config.Boom));
  Alcotest.(check int) "XS finds 7" 7 (List.length (found_on Config.Xiangshan));
  Alcotest.(check bool) "D8 not on BOOM" false (Case.expected Case.D8 Config.Boom);
  Alcotest.(check bool) "D1 not on XS" false (Case.expected Case.D1 Config.Xiangshan);
  (* Together they cover all 10. *)
  let union =
    List.sort_uniq Case.compare (found_on Config.Boom @ found_on Config.Xiangshan)
  in
  Alcotest.(check int) "10 distinct across both" 10 (List.length union)

(* {1 Access paths} *)

let test_access_path_inventory () =
  Alcotest.(check int) "15 paths" 15 (List.length Access_path.all);
  Alcotest.(check int) "13 data paths" 13 (List.length Access_path.data_paths);
  Alcotest.(check int) "2 metadata paths" 2 (List.length Access_path.metadata_paths);
  let names = List.map Access_path.to_string Access_path.all in
  Alcotest.(check int) "names distinct" 15 (List.length (List.sort_uniq compare names));
  (* Every leakage case is reachable from some access path. *)
  let reachable =
    List.sort_uniq Case.compare (List.concat_map Access_path.candidate_cases Access_path.all)
  in
  Alcotest.(check int) "all 10 cases reachable" 10 (List.length reachable)

let test_perm_policies () =
  Alcotest.(check string) "prefetch unchecked" "unchecked"
    (Access_path.perm_policy_to_string
       (Access_path.perm_policy Access_path.Imp_acc_pref Config.Boom));
  Alcotest.(check string) "XS PTW serial" "checked-serial"
    (Access_path.perm_policy_to_string
       (Access_path.perm_policy Access_path.Imp_acc_ptw_root Config.Xiangshan));
  Alcotest.(check string) "BOOM PTW parallel" "checked-parallel"
    (Access_path.perm_policy_to_string
       (Access_path.perm_policy Access_path.Imp_acc_ptw_root Config.Boom));
  Alcotest.(check string) "explicit loads race the check" "checked-parallel"
    (Access_path.perm_policy_to_string
       (Access_path.perm_policy Access_path.Exp_acc_enc_l1 Config.Xiangshan))

(* {1 Gadget library and execution model} *)

let test_gadget_inventory () =
  (* Matches the paper's Table 2 counts. *)
  Alcotest.(check int) "8 setup gadgets" 8 (List.length Gadget_library.setup_gadgets);
  Alcotest.(check int) "12 helper gadgets" 12 (List.length Gadget_library.helper_gadgets);
  Alcotest.(check int) "15 access gadgets" 15 (List.length Gadget_library.access_gadgets);
  let names =
    List.map Gadget.name
      Gadget_library.(setup_gadgets @ helper_gadgets @ access_gadgets)
  in
  Alcotest.(check int) "35 distinct names" 35 (List.length (List.sort_uniq compare names))

let test_exec_model_contracts () =
  let m = Exec_model.initial () in
  (* Access gadgets are not applicable on the empty state. *)
  Alcotest.(check bool) "L1 access needs a secret" false
    (Gadget.applicable (Gadget_library.access_gadget Access_path.Exp_acc_enc_l1) m);
  Alcotest.(check bool) "create applicable initially" true
    (Gadget.applicable Gadget_library.create_enclave m);
  Gadget.apply Gadget_library.create_enclave m;
  Alcotest.(check bool) "second create rejected" false
    (Gadget.applicable Gadget_library.create_enclave m);
  Gadget.apply Gadget_library.fill_enc_mem m;
  Alcotest.(check bool) "secret now in L1" true m.Exec_model.secret.Exec_model.in_l1;
  Alcotest.(check bool) "L1 access now applicable" true
    (Gadget.applicable (Gadget_library.access_gadget Access_path.Exp_acc_enc_l1) m);
  Gadget.apply Gadget_library.evict_enc_l1 m;
  Alcotest.(check bool) "evicted from L1" false m.Exec_model.secret.Exec_model.in_l1;
  Alcotest.(check bool) "now in L2" true m.Exec_model.secret.Exec_model.in_l2

let test_exec_model_copy_isolated () =
  let m = Exec_model.initial () in
  let c = Exec_model.copy m in
  c.Exec_model.secret.Exec_model.in_l1 <- true;
  Alcotest.(check bool) "copy does not alias" false m.Exec_model.secret.Exec_model.in_l1

(* {1 Assembler} *)

let test_assembler_all_paths_valid () =
  List.iter
    (fun path ->
      let params = Params.default in
      let tc = Assembler.assemble ~id:0 path ~params in
      (* The access gadget comes last and matches the requested path. *)
      match Gadget.access_path (snd (Testcase.split tc)) with
      | Some p ->
        Alcotest.(check string)
          (Access_path.to_string path ^ " chain ends in its access gadget")
          (Access_path.to_string path) (Access_path.to_string p)
      | None -> Alcotest.fail "last gadget must be an access gadget")
    Access_path.all

let test_assembler_rejects_invalid_chain () =
  (* An access gadget without its helpers must be rejected by the model. *)
  let bad = [ Gadget_library.access_gadget Access_path.Exp_acc_enc_l1 ] in
  (try
     ignore (Assembler.validate bad);
     Alcotest.fail "expected Invalid_chain"
   with Assembler.Invalid_chain _ -> ());
  (* A full recipe validates. *)
  let good =
    Assembler.recipe Access_path.Exp_acc_enc_l1 ~params:Params.default
    @ [ Gadget_library.access_gadget Access_path.Exp_acc_enc_l1 ]
  in
  ignore (Assembler.validate good)

(* {1 Fuzzer} *)

let test_fuzzer_corpus_size () =
  (* The paper's prototype generated 585 test cases. *)
  Alcotest.(check int) "585 test cases" 585 (Fuzzer.total_cases ());
  let corpus = Fuzzer.corpus () in
  Alcotest.(check int) "corpus materialises fully" 585 (List.length corpus);
  (* Ids are unique and sequential. *)
  let ids = List.map (fun tc -> tc.Testcase.id) corpus in
  Alcotest.(check int) "ids unique" 585 (List.length (List.sort_uniq compare ids))

let test_fuzzer_grid_shape () =
  (* Pin the published per-path corpus composition (sums to 585). *)
  let expected =
    [
      (Access_path.Exp_acc_enc_l1, 128);
      (Access_path.Exp_acc_enc_l2, 64);
      (Access_path.Exp_acc_enc_mem, 32);
      (Access_path.Exp_acc_enc_stb, 64);
      (Access_path.Exp_acc_enc_misaligned, 25);
      (Access_path.Exp_acc_sm, 32);
      (Access_path.Exp_acc_cross_enclave, 32);
      (Access_path.Exp_acc_host_from_enclave, 32);
      (Access_path.Exp_store_enc, 32);
      (Access_path.Imp_acc_pref, 32);
      (Access_path.Imp_acc_ptw_root, 32);
      (Access_path.Imp_acc_ptw_legit, 16);
      (Access_path.Imp_acc_destroy_memset, 16);
      (Access_path.Meta_hpc, 24);
      (Access_path.Meta_btb, 24);
    ]
  in
  List.iter2
    (fun (p, n) (p', n') ->
      Alcotest.(check string) "path order" (Access_path.to_string p)
        (Access_path.to_string p');
      Alcotest.(check int) (Access_path.to_string p ^ " count") n n')
    expected (Fuzzer.count_per_path ())

let test_fuzzer_covers_all_paths () =
  let per_path = Fuzzer.count_per_path () in
  Alcotest.(check int) "all 15 paths covered" 15 (List.length per_path);
  List.iter
    (fun (path, n) ->
      Alcotest.(check bool) (Access_path.to_string path ^ " has cases") true (n > 0))
    per_path

let test_fuzzer_deterministic () =
  let params l = List.map (fun tc -> Params.to_string tc.Testcase.params) l in
  Alcotest.(check (list string)) "corpus regeneration identical"
    (params (Fuzzer.corpus ())) (params (Fuzzer.corpus ()))

let test_fuzzer_widths_valid () =
  List.iter
    (fun tc ->
      let p = tc.Testcase.params in
      Alcotest.(check bool) "width valid" true
        (List.mem p.Params.width [ 1; 2; 4; 8 ]);
      Alcotest.(check bool) "offset in line" true
        (p.Params.offset >= 0 && p.Params.offset < 64))
    (Fuzzer.corpus ())

let test_fuzzer_random_params () =
  let rng_state = ref 42L in
  let p1 = Fuzzer.random_params ~rng_state Access_path.Exp_acc_enc_l1 in
  let p2 = Fuzzer.random_params ~rng_state Access_path.Exp_acc_enc_l1 in
  (* Draws come from the grid. *)
  let grid = Fuzzer.grid Access_path.Exp_acc_enc_l1 in
  Alcotest.(check bool) "draw 1 from grid" true (List.mem p1 grid);
  Alcotest.(check bool) "draw 2 from grid" true (List.mem p2 grid)

(* {1 Checker classification} *)

let synthetic_log entries_maker =
  let log = Log.create () in
  entries_maker log;
  log

let tracked_secret ?(owner = Secret.Enclave_owner 0) () =
  let t = Secret.create_tracker () in
  let v = Secret.register t ~seed:9L ~addr:0x8800_8000L ~owner in
  (t, v)

let test_checker_classifies_d1 () =
  let t, v = tracked_secret () in
  let log =
    synthetic_log (fun log ->
        Log.record log ~cycle:100 ~ctx:host_s
          (Log.Write
             { structure = Structure.Lfb; entries = [ Log.entry v ]; origin = Log.Prefetch }))
  in
  let findings = Checker.check log t in
  Alcotest.(check bool) "classified D1" true
    (List.exists (fun f -> f.Checker.case = Some Case.D1) findings)

let test_checker_classifies_d2_d3 () =
  let t, v = tracked_secret () in
  let log =
    synthetic_log (fun log ->
        Log.record log ~cycle:100 ~ctx:host_s
          (Log.Write
             { structure = Structure.Lfb; entries = [ Log.entry v ]; origin = Log.Ptw_walk });
        (* D3 manifests as residue whose provenance is the memset. *)
        Log.record log ~cycle:200 ~ctx:Exec_context.Monitor
          (Log.Write
             { structure = Structure.Lfb; entries = [ Log.entry v ]; origin = Log.Memset_destroy });
        Log.record log ~cycle:300 ~ctx:host_s
          (Log.Snapshot { structure = Structure.Lfb; entries = [ Log.entry v ] }))
  in
  let cases = Checker.distinct_cases (Checker.check log t) in
  Alcotest.(check bool) "D2 found" true (List.exists (Case.equal Case.D2) cases);
  Alcotest.(check bool) "D3 found" true (List.exists (Case.equal Case.D3) cases)

let test_checker_classifies_rf_cases () =
  let rf_write ~owner ~ctx ~note =
    let t, v = tracked_secret ~owner () in
    let log =
      synthetic_log (fun log ->
          Log.record log ~cycle:10 ~ctx
            (Log.Write
               {
                 structure = Structure.Reg_file;
                 entries = [ Log.entry ~note v ];
                 origin = Log.Explicit_load;
               }))
    in
    Checker.distinct_cases (Checker.check log t)
  in
  let transient = "l1-hit-before-squash transient" in
  Alcotest.(check bool) "D4" true
    (List.mem Case.D4 (rf_write ~owner:(Secret.Enclave_owner 0) ~ctx:host_s ~note:transient));
  Alcotest.(check bool) "D5" true
    (List.mem Case.D5 (rf_write ~owner:Secret.Sm_owner ~ctx:host_s ~note:transient));
  Alcotest.(check bool) "D6" true
    (List.mem Case.D6
       (rf_write ~owner:(Secret.Enclave_owner 0) ~ctx:(Exec_context.Enclave 1) ~note:transient));
  Alcotest.(check bool) "D7" true
    (List.mem Case.D7
       (rf_write ~owner:Secret.Host_owner ~ctx:(Exec_context.Enclave 0) ~note:transient));
  Alcotest.(check bool) "D8" true
    (List.mem Case.D8
       (rf_write ~owner:(Secret.Enclave_owner 0) ~ctx:host_s
          ~note:"forwarded-from-store-buffer transient"));
  (* A non-transient RF write is not an exploitable case. *)
  Alcotest.(check (list reject)) "non-transient unclassified" []
    (rf_write ~owner:(Secret.Enclave_owner 0) ~ctx:host_s ~note:"load")

let test_checker_trusted_contexts_clean () =
  let t, v = tracked_secret () in
  let log =
    synthetic_log (fun log ->
        (* The enclave and the monitor may see the secret freely. *)
        Log.record log ~cycle:1 ~ctx:(Exec_context.Enclave 0)
          (Log.Write
             { structure = Structure.Reg_file; entries = [ Log.entry ~note:"load" v ];
               origin = Log.Explicit_load });
        Log.record log ~cycle:2 ~ctx:Exec_context.Monitor
          (Log.Write
             { structure = Structure.Lfb; entries = [ Log.entry v ];
               origin = Log.Memset_destroy }))
  in
  Alcotest.(check int) "no findings for trusted observers" 0
    (List.length (Checker.check log t))

let test_checker_residue_unclassified () =
  let t, v = tracked_secret () in
  let log =
    synthetic_log (fun log ->
        Log.record log ~cycle:5 ~ctx:host_s
          (Log.Snapshot { structure = Structure.L1d_data; entries = [ Log.entry v ] }))
  in
  let findings = Checker.check log t in
  Alcotest.(check int) "one residue warning" 1 (Checker.residue_warnings findings);
  Alcotest.(check (list reject)) "not a numbered case" []
    (Checker.distinct_cases findings)

let test_checker_derived_only_transient () =
  let t = Secret.create_tracker () in
  Secret.register_value t ~value:0x42L ~addr:0x8800_8000L ~owner:(Secret.Enclave_owner 0);
  let log =
    synthetic_log (fun log ->
        (* A benign host write-back of the same small value must not match. *)
        Log.record log ~cycle:1 ~ctx:host_s
          (Log.Write
             { structure = Structure.Reg_file; entries = [ Log.entry ~note:"li" 0x42L ];
               origin = Log.Writeback });
        (* Nor a snapshot residue. *)
        Log.record log ~cycle:2 ~ctx:host_s
          (Log.Snapshot { structure = Structure.L1d_data; entries = [ Log.entry 0x42L ] });
        (* Only a transient RF forward counts. *)
        Log.record log ~cycle:3 ~ctx:host_s
          (Log.Write
             {
               structure = Structure.Reg_file;
               entries = [ Log.entry ~note:"l1-hit-before-squash transient" 0x42L ];
               origin = Log.Explicit_load;
             }))
  in
  let findings = Checker.check log t in
  Alcotest.(check int) "exactly one finding" 1 (List.length findings);
  Alcotest.(check bool) "it is D4" true
    (List.exists (fun f -> f.Checker.case = Some Case.D4) findings)

let test_checker_m2_residue () =
  let log =
    synthetic_log (fun log ->
        Log.record log ~cycle:50 ~ctx:host_s
          (Log.Snapshot
             {
               structure = Structure.Ubtb;
               entries = [ Log.entry ~note:"tag=0x0 taken=true owner=enclave-0" 0x8800_0008L ];
             }))
  in
  let findings = Checker.check log (Secret.create_tracker ()) in
  Alcotest.(check bool) "M2 from uBTB residue" true
    (List.exists (fun f -> f.Checker.case = Some Case.M2) findings);
  (* Host-owned entries are fine. *)
  let clean =
    synthetic_log (fun log ->
        Log.record log ~cycle:50 ~ctx:host_s
          (Log.Snapshot
             {
               structure = Structure.Ubtb;
               entries = [ Log.entry ~note:"tag=0x0 taken=true owner=host-S" 0x8000_0008L ];
             }))
  in
  Alcotest.(check int) "host entries are clean" 0
    (List.length (Checker.check clean (Secret.create_tracker ())))

let test_checker_dedupes () =
  let t, v = tracked_secret () in
  let log =
    synthetic_log (fun log ->
        for i = 1 to 5 do
          Log.record log ~cycle:i ~ctx:host_s
            (Log.Write
               { structure = Structure.Lfb; entries = [ Log.entry v ]; origin = Log.Prefetch })
        done)
  in
  let findings = Checker.check log t in
  Alcotest.(check int) "five identical hits dedupe to one" 1 (List.length findings)

(* {1 Smaller helpers} *)

let test_mitigation_expansion () =
  Alcotest.(check bool) "flush-everything implies flush-lfb" true
    (Mitigation.active [ Mitigation.Flush_everything ] Mitigation.Flush_lfb);
  Alcotest.(check bool) "flush-everything implies flush-l1d" true
    (Mitigation.active [ Mitigation.Flush_everything ] Mitigation.Flush_l1d);
  Alcotest.(check bool) "but not clear-illegal (a datapath change)" false
    (Mitigation.active [ Mitigation.Flush_everything ] Mitigation.Clear_illegal_data_returns);
  Alcotest.(check bool) "atom implies itself" true
    (Mitigation.active [ Mitigation.Flush_lfb ] Mitigation.Flush_lfb);
  Alcotest.(check bool) "empty set implies nothing" false
    (Mitigation.active [] Mitigation.Flush_lfb);
  Alcotest.(check int) "six paper mitigations" 6 (List.length Mitigation.all);
  Alcotest.(check int) "one extension" 1 (List.length Mitigation.extensions)

let test_params_and_testcase_rendering () =
  let p = Params.make ~offset:8 ~width:4 ~variant:2 ~seed:0xAAL () in
  let s = Params.to_string p in
  Alcotest.(check bool) "params mention offset" true
    (String.length s > 0 && String.sub s 0 6 = "offset");
  let tc = Assembler.assemble ~id:7 Access_path.Exp_acc_enc_l1 ~params:p in
  let name = Testcase.name tc in
  Alcotest.(check bool) "name carries the id" true
    (String.length name > 2 && String.sub name 0 2 = "#7");
  Alcotest.(check string) "access gadget name" "Exp_Acc_Enc_L1"
    (Gadget.name (snd (Testcase.split tc)))

let test_case_strings () =
  List.iter
    (fun case ->
      Alcotest.(check bool) "description nonempty" true
        (String.length (Case.description case) > 10))
    Case.all

let test_env_errors () =
  let env = Env.create Config.boom Params.default in
  Alcotest.check_raises "victim before create"
    (Invalid_argument "Env.victim_exn: no victim enclave created") (fun () ->
      ignore (Env.victim_exn env));
  Alcotest.check_raises "attacker before create"
    (Invalid_argument "Env.attacker_exn: no attacker enclave created") (fun () ->
      ignore (Env.attacker_exn env))

let test_summary_line () =
  let tc = Assembler.assemble ~id:0 Access_path.Exp_acc_enc_l1 ~params:Params.default in
  let outcome = Runner.run Config.boom tc in
  let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
  let line = Report.summary_line tc findings in
  let contains needle =
    let n = String.length needle and m = String.length line in
    let rec at i = i + n <= m && (String.sub line i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "mentions D4" true (contains "D4");
  Alcotest.(check bool) "mentions residue warnings" true (contains "residue warnings");
  (* A clean run renders as clean. *)
  let clean = Report.summary_line tc [] in
  let contains_clean =
    let needle = "clean" in
    let n = String.length needle and m = String.length clean in
    let rec at i = i + n <= m && (String.sub clean i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "clean marker" true contains_clean

let test_recommend_candidates () =
  let sets = Recommend.candidate_sets in
  (* Empty set + 6 singles + C(6,2)=15 pairs + 2 flush-everything forms. *)
  Alcotest.(check int) "candidate count" (1 + 6 + 15 + 2) (List.length sets);
  Alcotest.(check bool) "baseline included" true (List.mem [] sets);
  (* No duplicates. *)
  Alcotest.(check int) "distinct" (List.length sets)
    (List.length (List.sort_uniq compare sets))

(* {1 Eviction sets} *)

let test_eviction_set_build () =
  let config = Config.boom in
  let target = 0x8800_8000L in
  let set = Eviction_set.build config ~target ~from:0x8004_0000L ~count:4 in
  Alcotest.(check int) "requested count" 4 (List.length set);
  List.iter
    (fun addr ->
      Alcotest.(check bool) "same set as target" true
        (Eviction_set.same_set config ~addr1:addr ~addr2:target);
      Alcotest.(check bool) "not the target line" false
        (Int64.equal
           (Riscv.Word.align_down addr ~alignment:64)
           (Riscv.Word.align_down target ~alignment:64)))
    set;
  Alcotest.(check int) "distinct lines" 4
    (List.length (List.sort_uniq compare set))

let test_eviction_set_instrs () =
  let set = Eviction_set.build Config.boom ~target:0x8800_8000L ~from:0x8004_0000L ~count:2 in
  (* Prime touches each address once and fences; probe reads the cycle
     counter around each access. *)
  Alcotest.(check int) "prime length" ((2 * 2) + 1)
    (List.length (Eviction_set.prime_instrs set));
  Alcotest.(check int) "probe length" (1 + (2 * 6))
    (List.length (Eviction_set.probe_instrs set))

let prop_eviction_addresses_conflict =
  QCheck.Test.make ~name:"built eviction addresses conflict with the target" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 7))
    (fun (line, count) ->
      let count = count + 1 in
      let target = Int64.add 0x8800_0000L (Int64.of_int (line * 64)) in
      let set =
        Eviction_set.build Config.xiangshan ~target ~from:0x8004_0000L ~count
      in
      List.length set = count
      && List.for_all
           (fun addr -> Eviction_set.same_set Config.xiangshan ~addr1:addr ~addr2:target)
           set)

(* {1 Plan and tables} *)

let test_plan_contents () =
  let plan = Plan.build Config.boom in
  Alcotest.(check bool) "storage elements discovered" true
    (Plan.storage_element_count plan > 10);
  Alcotest.(check bool) "state bits counted" true (Plan.total_state_bits plan > 0);
  Alcotest.(check bool) "lfb mapped to a logged structure" true
    (Plan.elements_for plan Structure.Lfb <> []);
  Alcotest.(check int) "seven TEE API entries" 7 (List.length plan.Plan.tee_api);
  Alcotest.(check int) "15 access paths in plan" 15 (List.length plan.Plan.paths);
  (* XiangShan's plan maps the miss queue to the LFB role. *)
  let plan_xs = Plan.build Config.xiangshan in
  Alcotest.(check bool) "xs lfb-equivalent found" true
    (Plan.elements_for plan_xs Structure.Lfb <> [])

let test_automation_table () =
  Alcotest.(check int) "seven rows (Table 1)" 7 (List.length Plan.automation_table);
  let automatic =
    List.filter (fun (_, _, a) -> a = Plan.Automatic) Plan.automation_table
  in
  (* Storage-element identification, test assembly, log analysis and
     leakage discovery are automatic — four rows, as in the paper. *)
  Alcotest.(check int) "four automatic steps" 4 (List.length automatic)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_tables_render () =
  let t1 = Tables.table1 () in
  Alcotest.(check bool) "table1 nonempty" true (String.length t1 > 100);
  let t2 = Tables.table2 () in
  Alcotest.(check bool) "table2 mentions the 585-case corpus" true (contains t2 "585");
  Alcotest.(check bool) "table2 lists every access path" true
    (List.for_all (fun p -> contains t2 (Access_path.to_string p)) Access_path.all)

let () =
  Alcotest.run "teesec"
    [
      ( "secret",
        [
          Alcotest.test_case "address tracing" `Quick test_secret_tracing;
          Alcotest.test_case "line registration" `Quick test_secret_register_line;
          Alcotest.test_case "authorization" `Quick test_secret_authorization;
          Alcotest.test_case "derived flag" `Quick test_secret_derived_flag;
          Alcotest.test_case "restoring a capture" `Quick test_secret_restore_capture;
        ] );
      ("case", [ Alcotest.test_case "metadata and Table 3 shape" `Quick test_case_metadata ]);
      ( "access_path",
        [
          Alcotest.test_case "inventory" `Quick test_access_path_inventory;
          Alcotest.test_case "permission policies" `Quick test_perm_policies;
        ] );
      ( "gadgets",
        [
          Alcotest.test_case "inventory counts (Table 2)" `Quick test_gadget_inventory;
          Alcotest.test_case "execution-model contracts" `Quick test_exec_model_contracts;
          Alcotest.test_case "model copy isolation" `Quick test_exec_model_copy_isolated;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "all paths assemble" `Quick test_assembler_all_paths_valid;
          Alcotest.test_case "invalid chains rejected" `Quick
            test_assembler_rejects_invalid_chain;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "corpus size is 585" `Quick test_fuzzer_corpus_size;
          Alcotest.test_case "covers all paths" `Quick test_fuzzer_covers_all_paths;
          Alcotest.test_case "grid shape pinned" `Quick test_fuzzer_grid_shape;
          Alcotest.test_case "deterministic" `Quick test_fuzzer_deterministic;
          Alcotest.test_case "parameters well-formed" `Quick test_fuzzer_widths_valid;
          Alcotest.test_case "random draws from grid" `Quick test_fuzzer_random_params;
        ] );
      ( "checker",
        [
          Alcotest.test_case "D1 classification" `Quick test_checker_classifies_d1;
          Alcotest.test_case "D2/D3 classification" `Quick test_checker_classifies_d2_d3;
          Alcotest.test_case "RF cases D4-D8" `Quick test_checker_classifies_rf_cases;
          Alcotest.test_case "trusted contexts are clean" `Quick
            test_checker_trusted_contexts_clean;
          Alcotest.test_case "cache residue unclassified" `Quick
            test_checker_residue_unclassified;
          Alcotest.test_case "derived values only transient" `Quick
            test_checker_derived_only_transient;
          Alcotest.test_case "M2 residue" `Quick test_checker_m2_residue;
          Alcotest.test_case "deduplication" `Quick test_checker_dedupes;
        ] );
      ( "misc",
        [
          Alcotest.test_case "mitigation expansion" `Quick test_mitigation_expansion;
          Alcotest.test_case "params/testcase rendering" `Quick
            test_params_and_testcase_rendering;
          Alcotest.test_case "case strings" `Quick test_case_strings;
          Alcotest.test_case "env errors" `Quick test_env_errors;
          Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "recommendation candidates" `Quick test_recommend_candidates;
        ] );
      ( "eviction_set",
        [
          Alcotest.test_case "build" `Quick test_eviction_set_build;
          Alcotest.test_case "prime/probe sequences" `Quick test_eviction_set_instrs;
          QCheck_alcotest.to_alcotest prop_eviction_addresses_conflict;
        ] );
      ( "plan",
        [
          Alcotest.test_case "contents" `Quick test_plan_contents;
          Alcotest.test_case "automation table" `Quick test_automation_table;
          Alcotest.test_case "table rendering" `Quick test_tables_render;
        ] );
    ]
