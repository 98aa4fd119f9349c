(* Tests for the snapshot/fork execution engine.

   Two layers of contracts:

   - every stateful structure's snapshot form is a deep capture — the
     [copy]/[restore_into] pair of the small structures, the sparse
     [capture]/[restore_capture] pair of the cache, BTB and memory:
     mutating the original afterwards never leaks into the snapshot,
     restoring brings the original back bit-for-bit, and restoring into
     a structure of another geometry is rejected;

   - the engine end to end: cuts hit across cases, foreign configs are
     refused, campaign CSV, inject JSON and fuzz JSON are byte-identical
     whether the setup prefix is replayed or restored from snapshots, on
     both cores and at jobs 1 and 4, and the inject report is
     snapshot-invariant for arbitrary seeds, plan counts and slice cases
     and at the CLI's defaults — the replay path is the oracle the
     snapshot path, with its span pruning and early stop, is diffed
     against. *)

open Teesec
open Riscv
module Config = Uarch.Config
module Machine = Uarch.Machine
module Cache = Uarch.Cache
module Tlb = Uarch.Tlb
module Lfb = Uarch.Lfb
module Store_buffer = Uarch.Store_buffer
module Regfile = Uarch.Regfile
module Btb = Uarch.Btb
module Log = Simlog.Log
module Exec_context = Simlog.Exec_context

(* {1 Structure copies are deep} *)

let test_tlb_copy_isolated () =
  let t = Tlb.create ~entries:4 in
  let perm =
    { Page_table.read = true; write = false; execute = false; user = false }
  in
  Tlb.insert t ~vaddr:0x4000_0000L ~paddr:0x8000_0000L ~perm;
  let clone = Tlb.copy t in
  Tlb.flush t;
  Alcotest.(check int) "original flushed" 0 (Tlb.occupancy t);
  Alcotest.(check int) "clone unaffected" 1 (Tlb.occupancy clone);
  Tlb.restore_into clone ~into:t;
  Alcotest.(check int) "restored occupancy" 1 (Tlb.occupancy t);
  Alcotest.(check bool) "restored entry translates" true
    (Tlb.lookup t ~vaddr:0x4000_0000L <> None)

let test_lfb_copy_isolated () =
  let l = Lfb.create ~entries:2 ~retains_stale:true in
  ignore (Lfb.fill l ~addr:0x8000_0000L ~data:(Array.make 8 0xC0FFEEL));
  let clone = Lfb.copy l in
  Lfb.flush l;
  Alcotest.(check bool) "original flushed" false (Lfb.holds_value l 0xC0FFEEL);
  Alcotest.(check bool) "clone retains the fill" true
    (Lfb.holds_value clone 0xC0FFEEL);
  Lfb.restore_into clone ~into:l;
  Alcotest.(check bool) "restore brings the fill back" true
    (Lfb.holds_value l 0xC0FFEEL)

let test_store_buffer_copy_isolated () =
  let sb = Store_buffer.create ~entries:4 in
  Store_buffer.push sb
    { Store_buffer.addr = 0x8000_0000L; size = 8; value = 0xDEADL;
      ctx_note = "test"; origin = Log.Explicit_store };
  let clone = Store_buffer.copy sb in
  ignore (Store_buffer.drain sb);
  Alcotest.(check int) "original drained" 0 (Store_buffer.occupancy sb);
  Alcotest.(check int) "clone still holds the store" 1
    (Store_buffer.occupancy clone);
  Store_buffer.restore_into clone ~into:sb;
  Alcotest.(check bool) "restored buffer forwards the value" true
    (Store_buffer.holds_value sb 0xDEADL)

let test_regfile_copy_isolated () =
  let rf = Regfile.create ~regs:8 in
  ignore
    (Regfile.writeback rf ~value:0x5EC4E7L
       ~ctx:(Exec_context.Host Priv.Supervisor) ~transient:true);
  let clone = Regfile.copy rf in
  Regfile.clear rf;
  Alcotest.(check bool) "original cleared" false (Regfile.holds_value rf 0x5EC4E7L);
  Alcotest.(check bool) "clone keeps the transient value" true
    (Regfile.holds_value clone 0x5EC4E7L);
  Regfile.restore_into clone ~into:rf;
  Alcotest.(check bool) "restore brings the value back" true
    (Regfile.holds_value rf 0x5EC4E7L)

let test_pmp_copy_isolated () =
  let pmp = Pmp.create () in
  let entry =
    Pmp.napot_entry ~base:0x8000_0000L ~size:0x1000 ~perm:Pmp.read_only
      ~locked:false
  in
  Pmp.set pmp 3 entry;
  let clone = Pmp.copy pmp in
  Pmp.clear pmp;
  Alcotest.(check bool) "original cleared" true (Pmp.get pmp 3 = Pmp.disabled_entry);
  Alcotest.(check bool) "clone keeps the entry" true (Pmp.get clone 3 = entry);
  Pmp.restore_into clone ~into:pmp;
  Alcotest.(check bool) "restore brings the entry back" true (Pmp.get pmp 3 = entry)

let test_csr_copy_isolated () =
  let csr = Csr.create () in
  Csr.raw_write csr Csr.Satp 0x1234L;
  let clone = Csr.copy csr in
  Csr.raw_write csr Csr.Satp 0x5678L;
  Alcotest.(check int64) "clone keeps the old value" 0x1234L
    (Csr.raw_read clone Csr.Satp);
  Csr.restore_into clone ~into:csr;
  Alcotest.(check int64) "restore brings the old value back" 0x1234L
    (Csr.raw_read csr Csr.Satp)

let test_cache_capture_roundtrip () =
  let c = Cache.create ~sets:4 ~ways:2 in
  let addr = 0x8000_0000L in
  ignore (Cache.insert c ~addr (Array.make 8 0xAAL));
  let cap = Cache.capture c in
  Alcotest.(check bool) "write to source succeeds" true
    (Cache.write_word c ~addr 0xBBL);
  let late = 0x8000_4000L in
  ignore (Cache.insert c ~addr:late (Array.make 8 0xCCL));
  Cache.restore_capture cap ~into:c;
  Alcotest.(check (option int64)) "restore brings the captured word back"
    (Some 0xAAL)
    (Cache.read_word c ~addr);
  Alcotest.(check (option int64)) "line inserted after capture is gone" None
    (Cache.read_word c ~addr:late);
  let mismatched = Cache.create ~sets:8 ~ways:2 in
  Alcotest.(check bool) "geometry mismatch raises" true
    (try
       Cache.restore_capture cap ~into:mismatched;
       false
     with Invalid_argument _ -> true)

let test_btb_capture_roundtrip () =
  let btb = Btb.create ~entries:8 ~tag_bits:6 ~ways:1 () in
  ignore
    (Btb.update btb ~pc:0x8000_0100L ~target:0x8000_0200L ~taken:true
       ~owner:(Exec_context.Enclave 1));
  let cap = Btb.capture btb in
  ignore
    (Btb.update btb ~pc:0x8000_0300L ~target:0x8000_0400L ~taken:false
       ~owner:(Exec_context.Host Priv.Supervisor));
  Btb.flush btb;
  Btb.restore_capture cap ~into:btb;
  Alcotest.(check bool) "captured entry is back" true
    (Btb.lookup btb ~pc:0x8000_0100L <> None);
  Alcotest.(check bool) "entry installed after capture is gone" true
    (Btb.lookup btb ~pc:0x8000_0300L = None);
  let mismatched = Btb.create ~entries:8 ~tag_bits:6 ~ways:2 () in
  Alcotest.(check bool) "geometry mismatch raises" true
    (try
       Btb.restore_capture cap ~into:mismatched;
       false
     with Invalid_argument _ -> true)

let test_memory_capture_roundtrip () =
  let mem = Memory.create () in
  Memory.write mem ~addr:0x8000_0000L ~size:8 0xAAL;
  let cap = Memory.capture mem in
  Memory.write mem ~addr:0x8000_0000L ~size:8 0xBBL;
  Memory.write mem ~addr:0x8000_1000L ~size:8 0xCCL;
  Memory.restore_capture cap ~into:mem;
  Alcotest.(check int64) "captured granule is back" 0xAAL
    (Memory.read mem ~addr:0x8000_0000L ~size:8);
  Alcotest.(check int64) "granule written after capture reads as zero" 0L
    (Memory.read mem ~addr:0x8000_1000L ~size:8);
  Alcotest.(check int) "granule count matches the capture" 1
    (Memory.words_written mem)

let test_log_mark_reset () =
  let log = Log.create () in
  let ctx = Exec_context.Host Priv.Supervisor in
  Log.record log ~cycle:1 ~ctx
    (Log.Mode_switch { from_ctx = ctx; to_ctx = Exec_context.Monitor });
  let m = Log.mark log in
  Log.record log ~cycle:2 ~ctx
    (Log.Mode_switch { from_ctx = Exec_context.Monitor; to_ctx = ctx });
  Alcotest.(check int) "two records before reset" 2 (Log.length log);
  Log.reset_to log m;
  Alcotest.(check int) "reset drops the later record" 1 (Log.length log)

(* {1 Machine and environment snapshots} *)

(* A full end-to-end capture: establish a prefix, snapshot, run the
   access gadget (dirtying caches, log, SM, tracker), restore, rerun —
   the second run's outcome must equal the first's byte for byte. *)
let test_env_snapshot_replay_identical () =
  let tc = List.hd (Mitigation_eval.slice ()) in
  let outcome_fingerprint env =
    let log = Uarch.Machine.log env.Env.machine in
    Format.asprintf "%d|%d|%a" (Uarch.Machine.cycle env.Env.machine)
      (Log.length log) Log.pp log
  in
  let run_access env =
    let _, access = Testcase.split tc in
    access.Gadget.emit env;
    Uarch.Machine.switch_context env.Env.machine
      ~to_ctx:(Exec_context.Host Priv.Supervisor)
  in
  let env = Env.create Config.boom tc.Testcase.params in
  let prefix = List.filteri (fun i _ -> i < List.length tc.Testcase.gadgets - 1) tc.Testcase.gadgets in
  List.iter (fun g -> g.Gadget.emit env) prefix;
  let snap = Env.snapshot env in
  run_access env;
  let first = outcome_fingerprint env in
  let env2 = Env.create Config.boom tc.Testcase.params in
  Env.restore env2 snap;
  run_access env2;
  Alcotest.(check string) "restored run reproduces the original" first
    (outcome_fingerprint env2);
  (* And the snapshot is reusable: restore the same capture again. *)
  let env3 = Env.create Config.boom tc.Testcase.params in
  Env.restore env3 snap;
  run_access env3;
  Alcotest.(check string) "snapshot survives repeated restores" first
    (outcome_fingerprint env3)

(* {1 Cut keys and hashes} *)

let test_config_hash_discriminates () =
  Alcotest.(check bool) "boom != xiangshan" true
    (Config.hash Config.boom <> Config.hash Config.xiangshan);
  Alcotest.(check bool) "boom != boom_v2" true
    (Config.hash Config.boom <> Config.hash Config.boom_v2);
  Alcotest.(check int64) "hash is stable" (Config.hash Config.boom)
    (Config.hash Config.boom);
  Alcotest.(check bool) "mitigations fold into the hash" true
    (Config.hash Config.boom
    <> Config.hash
         (Config.with_mitigations Config.boom [ Uarch.Mitigation.Flush_l1d ]))

let test_strutil_hash_fold () =
  Alcotest.(check int64) "hash_fold is stable"
    (Strutil.hash_fold 1L 2L) (Strutil.hash_fold 1L 2L);
  Alcotest.(check bool) "hash_string discriminates" true
    (Strutil.hash_string 0L "Create_Enclave" <> Strutil.hash_string 0L "Exe_Enclave");
  Alcotest.(check bool) "length prefix separates concatenations" true
    (Strutil.hash_string (Strutil.hash_string 0L "ab") "c"
    <> Strutil.hash_string (Strutil.hash_string 0L "a") "bc")

let test_engine_hits_across_cases () =
  (* Two grid entries of the same access path share the seed-independent
     part of their prefix; a third run of the first case is a full hit. *)
  let tcs = Mitigation_eval.slice () in
  let engine = Snapshot.create Config.boom in
  List.iter (fun tc -> ignore (Runner.run ~snapshots:engine Config.boom tc)) tcs;
  List.iter (fun tc -> ignore (Runner.run ~snapshots:engine Config.boom tc)) tcs;
  let stats = Snapshot.stats engine in
  Alcotest.(check bool) "the second pass hits" true (stats.Snapshot.hits > 0);
  Alcotest.(check bool) "snapshots were stored" true (stats.Snapshot.stores > 0);
  Alcotest.(check bool) "hits skip replay work" true
    (stats.Snapshot.restored_gadgets > 0)

(* With two slots, storing a third prefix evicts the least recently
   used one, not the oldest: after A, B, A, C the cache holds A and C. *)
let test_engine_evicts_lru () =
  let path = List.hd Access_path.all in
  let case name =
    let prefix =
      {
        Gadget.name;
        kind = Gadget.Setup;
        description = name;
        param_deps = [];
        pre = (fun _ -> true);
        post = (fun _ -> ());
        emit = (fun _ -> ());
      }
    in
    {
      Testcase.id = 0;
      path;
      gadgets = [ prefix; Gadget_library.access_gadget path ];
      params = Params.default;
    }
  in
  let engine = Snapshot.create ~slots:2 Config.boom in
  let hits () = (Snapshot.stats engine).Snapshot.hits in
  List.iter
    (fun (name, hit) ->
      let before = hits () in
      ignore (Snapshot.establish engine (case name));
      Alcotest.(check bool)
        (Printf.sprintf "%s %s" name (if hit then "hits" else "misses"))
        hit
        (hits () > before))
    [
      ("A", false); ("B", false); ("A", true); ("C", false); ("A", true);
      ("B", false); ("C", false); ("B", true);
    ];
  Alcotest.(check int) "one store per miss" 5 (Snapshot.stats engine).Snapshot.stores

let test_engine_rejects_other_config () =
  let engine = Snapshot.create Config.boom in
  let tc = List.hd (Mitigation_eval.slice ()) in
  Alcotest.(check bool) "config mismatch raises" true
    (try
       ignore (Runner.run ~snapshots:engine Config.xiangshan tc);
       false
     with Invalid_argument _ -> true)

(* A dropped engine must take its caches with it: its pooled machine
   and stored snapshots may not outlive it in a long-lived process. *)
let test_dropped_engines_are_freed () =
  let tcs = Mitigation_eval.slice () in
  let live_after_campaign () =
    let engine = Snapshot.create Config.boom in
    List.iter (fun tc -> ignore (Runner.run ~snapshots:engine Config.boom tc)) tcs;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let first = live_after_campaign () in
  let last = ref first in
  for _ = 2 to 10 do
    last := live_after_campaign ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "live words %d after 10 engines, %d after the first" !last first)
    true
    (float_of_int !last <= 1.1 *. float_of_int first)

(* {1 The differential suite: snapshot == replay}

   The engine's whole value rests on byte-identical artifacts: the
   {replay, snapshot} x {jobs 1, 4} projection of the byte-identity
   harness (test/equiv.ml), on both cores. *)

let replay_and_snapshot =
  Equiv.across ~jobs:[ 1; 4 ] ~snapshot:[ false; true ] ()

let differential pipeline config () =
  Equiv.row ~variants:replay_and_snapshot (pipeline ()) config ()

let campaign () = Equiv.campaign (Equiv.slice_prefix 6)
let inject () = Equiv.inject ~seed:42L ~plans:3 (Equiv.slice_prefix 6)

let fuzz () =
  Equiv.fuzz
    { Fuzz.Engine.default with Fuzz.Engine.seed = 42L; budget = 48; batch = 16 }

(* qcheck: the inject report is snapshot-invariant for arbitrary seeds,
   plan counts and slice cases, on both cores — fault plans interact
   with the fork point (arming happens after the prefix), and the
   engine's path skips plans that cannot fire and stops the ones spent
   without a trace, so this is where a restore that is almost exact, or
   an early stop that is not, would surface.  Every draw holds a
   destroy-memset case: its run outlasts every plan, so most plans are
   spent mid-memset. *)
let inject_snapshot_invariant =
  let slice = Array.of_list (Mitigation_eval.slice ()) in
  let memset_cases =
    List.filter
      (fun i -> Access_path.equal slice.(i).Testcase.path Access_path.Imp_acc_destroy_memset)
      (List.init (Array.length slice) Fun.id)
  in
  let gen =
    QCheck.Gen.(
      quad (int_range 0 1000) (int_range 1 25) bool
        (pair (oneofl memset_cases) (list_size (int_range 1 2) (int_bound (Array.length slice - 1)))))
  in
  QCheck.Test.make ~count:10
    ~name:"inject JSON is snapshot-invariant for arbitrary (seed, plans)"
    (QCheck.make
       ~print:(fun (seed, plans, boom, (memset, others)) ->
         Printf.sprintf "seed=%d plans=%d core=%s cases=[%s]" seed plans
           (if boom then "boom" else "xiangshan")
           (String.concat "; " (List.map string_of_int (memset :: others))))
       gen)
    (fun (seed, plans, boom, (memset, others)) ->
      let seed = Int64.of_int seed in
      let config = if boom then Config.boom else Config.xiangshan in
      let testcases =
        List.map (Array.get slice) (List.sort_uniq compare (memset :: others))
      in
      let replay =
        Inject.Robustness_report.to_json_string
          (Inject.Inject_campaign.run ~seed ~plans config testcases)
      in
      let snapshot =
        Inject.Robustness_report.to_json_string
          (Inject.Inject_campaign.run
             ~snapshots:(Snapshot.create config)
             ~seed ~plans config testcases)
      in
      String.equal replay snapshot)

(* The CLI's defaults: the whole slice under 25 plans at 0x5EED, engine
   against replay. *)
let inject_defaults config () =
  Equiv.row
    ~variants:(Equiv.across ~snapshot:[ true ] ())
    (Equiv.inject ~seed:0x5EEDL ~plans:25 (Mitigation_eval.slice ()))
    config ()

let () =
  Alcotest.run "snapshot"
    [
      ( "structure-copies",
        [
          Alcotest.test_case "tlb copy is deep" `Quick test_tlb_copy_isolated;
          Alcotest.test_case "lfb copy is deep" `Quick test_lfb_copy_isolated;
          Alcotest.test_case "store buffer copy is deep" `Quick
            test_store_buffer_copy_isolated;
          Alcotest.test_case "regfile copy is deep" `Quick
            test_regfile_copy_isolated;
          Alcotest.test_case "pmp copy is deep" `Quick test_pmp_copy_isolated;
          Alcotest.test_case "csr copy is deep" `Quick test_csr_copy_isolated;
          Alcotest.test_case "cache capture round-trips" `Quick
            test_cache_capture_roundtrip;
          Alcotest.test_case "btb capture round-trips" `Quick
            test_btb_capture_roundtrip;
          Alcotest.test_case "memory capture round-trips" `Quick
            test_memory_capture_roundtrip;
          Alcotest.test_case "log mark/reset" `Quick test_log_mark_reset;
        ] );
      ( "environment",
        [
          Alcotest.test_case "snapshot + restore reproduces a run byte-for-byte"
            `Quick test_env_snapshot_replay_identical;
        ] );
      ( "engine",
        [
          Alcotest.test_case "config hash discriminates" `Quick
            test_config_hash_discriminates;
          Alcotest.test_case "prefix hash helpers" `Quick test_strutil_hash_fold;
          Alcotest.test_case "repeated cases hit the cache" `Quick
            test_engine_hits_across_cases;
          Alcotest.test_case "engine refuses a foreign config" `Quick
            test_engine_rejects_other_config;
          Alcotest.test_case "dropped engines are freed" `Quick
            test_dropped_engines_are_freed;
          Alcotest.test_case "two slots evict the least recently used" `Quick
            test_engine_evicts_lru;
        ] );
      ( "differential",
        [
          Alcotest.test_case "campaign CSV snapshot == replay (BOOM)" `Slow
            (differential campaign Config.boom);
          Alcotest.test_case "campaign CSV snapshot == replay (XiangShan)" `Slow
            (differential campaign Config.xiangshan);
          Alcotest.test_case "inject JSON snapshot == replay (BOOM)" `Slow
            (differential inject Config.boom);
          Alcotest.test_case "inject JSON snapshot == replay (XiangShan)" `Slow
            (differential inject Config.xiangshan);
          Alcotest.test_case "fuzz JSON snapshot == replay (BOOM)" `Slow
            (differential fuzz Config.boom);
          Alcotest.test_case "fuzz JSON snapshot == replay (XiangShan)" `Slow
            (differential fuzz Config.xiangshan);
          Alcotest.test_case "inject JSON snapshot == replay at the defaults (BOOM)"
            `Slow (inject_defaults Config.boom);
          Alcotest.test_case
            "inject JSON snapshot == replay at the defaults (XiangShan)" `Slow
            (inject_defaults Config.xiangshan);
          QCheck_alcotest.to_alcotest inject_snapshot_invariant;
        ] );
    ]
