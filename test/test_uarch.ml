(* Tests for the microarchitectural simulator: the individual structures
   and the machine's load/store-unit, page-walker, prefetcher, branch
   prediction and transient-execution semantics. *)

open Riscv
module Cache = Uarch.Cache
module Lfb = Uarch.Lfb
module Store_buffer = Uarch.Store_buffer
module Tlb = Uarch.Tlb
module Btb = Uarch.Btb
module Hpc = Uarch.Hpc
module Regfile = Uarch.Regfile
module Machine = Uarch.Machine
module Config = Uarch.Config
module Mitigation = Uarch.Mitigation
module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context

let word = Alcotest.testable Word.pp Int64.equal
let line_of_value v = Array.make 8 v
let host_s = Exec_context.Host Priv.Supervisor

(* The entries a structure's [snapshot] appends to a fresh log. *)
let snapshot_entries snapshot =
  let log = Log.create () in
  Log.begin_snapshot log ~cycle:0 ~ctx:host_s ~structure:Structure.L1d_data;
  snapshot log;
  match Log.to_list log with
  | [ { Log.event = Log.Snapshot { entries; _ }; _ } ] -> entries
  | _ -> Alcotest.fail "snapshot must extend the open record"

(* {1 Cache} *)

let test_cache_insert_lookup () =
  let c = Cache.create ~sets:4 ~ways:2 in
  Alcotest.(check bool) "empty miss" true (Cache.lookup c ~addr:0x1000L = None);
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 7L));
  Alcotest.(check bool) "hit after insert" true (Cache.contains c ~addr:0x1000L);
  Alcotest.(check bool) "hit anywhere in line" true (Cache.contains c ~addr:0x1038L);
  Alcotest.(check bool) "next line misses" false (Cache.contains c ~addr:0x1040L);
  (match Cache.read_word c ~addr:0x1008L with
  | Some v -> Alcotest.(check word) "word value" 7L v
  | None -> Alcotest.fail "expected hit")

let test_cache_write_dirty_evict () =
  let c = Cache.create ~sets:4 ~ways:1 in
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 1L));
  Alcotest.(check bool) "write hits" true (Cache.write_word c ~addr:0x1008L 99L);
  (* Same set (4 sets x 64B lines -> stride 256B), different tag. *)
  (match Cache.insert c ~addr:0x1100L (line_of_value 2L) with
  | Some (victim_addr, victim_line, dirty) ->
    Alcotest.(check word) "victim address" 0x1000L victim_addr;
    Alcotest.(check bool) "victim dirty" true dirty;
    Alcotest.(check word) "victim carries the write" 99L victim_line.(1)
  | None -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "old line gone" false (Cache.contains c ~addr:0x1000L)

let test_cache_clean_eviction () =
  let c = Cache.create ~sets:4 ~ways:1 in
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 1L));
  (match Cache.insert c ~addr:0x1100L (line_of_value 2L) with
  | Some (_, _, dirty) -> Alcotest.(check bool) "clean victim" false dirty
  | None -> Alcotest.fail "expected eviction")

let test_cache_flush () =
  let c = Cache.create ~sets:4 ~ways:2 in
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 1L));
  ignore (Cache.insert c ~addr:0x2000L (line_of_value 2L));
  ignore (Cache.write_word c ~addr:0x2000L 5L);
  let dirty = Cache.flush c in
  Alcotest.(check int) "one dirty line written back" 1 (List.length dirty);
  Alcotest.(check int) "cache empty" 0 (List.length (Cache.valid_lines c))

let test_cache_evict_explicit () =
  let c = Cache.create ~sets:4 ~ways:2 in
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 3L));
  (match Cache.evict c ~addr:0x1000L with
  | Some (line, dirty) ->
    Alcotest.(check word) "line content" 3L line.(0);
    Alcotest.(check bool) "was clean" false dirty
  | None -> Alcotest.fail "expected line");
  Alcotest.(check bool) "gone" false (Cache.contains c ~addr:0x1000L);
  Alcotest.(check bool) "evicting again is none" true (Cache.evict c ~addr:0x1000L = None)

let test_cache_snapshot () =
  let c = Cache.create ~sets:4 ~ways:2 in
  ignore (Cache.insert c ~addr:0x1000L (line_of_value 0xABL));
  let entries = snapshot_entries (Cache.snapshot c) in
  Alcotest.(check int) "8 words per line" 8 (List.length entries);
  Alcotest.(check bool) "snapshot carries values" true
    (List.for_all (fun (e : Log.entry) -> Int64.equal e.Log.data 0xABL) entries)

(* A capture shares the round-robin pointers with the cache it was taken
   from and with every cache restored from it; each side copies them
   before its first eviction.  One set of three ways: lines 0..3 fill
   the ways and evict line 0, so the capture's next victim is way 1
   (line 1). *)
let test_cache_capture_shares_victims () =
  let line i = Int64.of_int (i * 64) in
  let fill c ids = List.iter (fun i -> ignore (Cache.insert c ~addr:(line i) (line_of_value (line i)))) ids in
  let victim c i =
    match Cache.insert c ~addr:(line i) (line_of_value (line i)) with
    | Some (addr, _, _) -> addr
    | None -> Alcotest.fail "a full set must evict"
  in
  let live = Cache.create ~sets:1 ~ways:3 in
  fill live [ 0; 1; 2; 3 ];
  let cap = Cache.capture live in
  Alcotest.(check word) "the source evicts in order" (line 1) (victim live 4);
  Alcotest.(check word) "and moves on" (line 2) (victim live 5);
  let a = Cache.create ~sets:1 ~ways:3 and b = Cache.create ~sets:1 ~ways:3 in
  Cache.restore_capture cap ~into:a;
  Cache.restore_capture cap ~into:b;
  Alcotest.(check word) "restored: the captured victim" (line 1) (victim a 6);
  Alcotest.(check word) "restored: then the next way" (line 2) (victim a 7);
  Alcotest.(check word) "a second restore evicts independently" (line 1) (victim b 8);
  let c = Cache.create ~sets:1 ~ways:3 in
  Cache.restore_capture cap ~into:c;
  Alcotest.(check word) "the capture is unchanged" (line 1) (victim c 9);
  Alcotest.(check word) "the source kept its own order" (line 3) (victim live 10)

(* {1 LFB} *)

let test_lfb_stale_retention () =
  let lfb = Lfb.create ~entries:2 ~retains_stale:true in
  let slot = Lfb.fill lfb ~addr:0x1000L ~data:(line_of_value 0xCAFEL) in
  Alcotest.(check int) "occupied" 1 (Lfb.occupied lfb);
  Lfb.complete lfb ~slot;
  Alcotest.(check int) "completed entries invalid" 0 (Lfb.occupied lfb);
  Alcotest.(check bool) "BOOM-style: stale data visible" true
    (Lfb.holds_value lfb 0xCAFEL)

let test_lfb_zeroing () =
  let lfb = Lfb.create ~entries:2 ~retains_stale:false in
  let slot = Lfb.fill lfb ~addr:0x1000L ~data:(line_of_value 0xCAFEL) in
  Lfb.complete lfb ~slot;
  Alcotest.(check bool) "XiangShan-style: zeroed on completion" false
    (Lfb.holds_value lfb 0xCAFEL)

let test_lfb_slot_reuse () =
  let lfb = Lfb.create ~entries:2 ~retains_stale:true in
  let s0 = Lfb.fill lfb ~addr:0x1000L ~data:(line_of_value 1L) in
  let s1 = Lfb.fill lfb ~addr:0x2000L ~data:(line_of_value 2L) in
  Alcotest.(check bool) "distinct slots" true (s0 <> s1);
  Lfb.complete lfb ~slot:s0;
  Lfb.complete lfb ~slot:s1;
  (* Round-robin reuse overwrites the oldest stale data. *)
  let s2 = Lfb.fill lfb ~addr:0x3000L ~data:(line_of_value 3L) in
  Alcotest.(check int) "reused slot 0" s0 s2;
  Alcotest.(check bool) "old slot-0 data overwritten" false (Lfb.holds_value lfb 1L);
  Alcotest.(check bool) "slot-1 stale data still there" true (Lfb.holds_value lfb 2L)

let test_lfb_flush () =
  let lfb = Lfb.create ~entries:2 ~retains_stale:true in
  let slot = Lfb.fill lfb ~addr:0x1000L ~data:(line_of_value 9L) in
  Lfb.complete lfb ~slot;
  Lfb.flush lfb;
  Alcotest.(check bool) "flushed" false (Lfb.holds_value lfb 9L);
  Alcotest.(check int) "snapshot empty" 0 (List.length (snapshot_entries (Lfb.snapshot lfb)))

(* {1 Store buffer} *)

let entry ?(origin = Log.Explicit_store) addr size value =
  { Store_buffer.addr; size; value; ctx_note = "test"; origin }

let test_stb_forwarding () =
  let stb = Store_buffer.create ~entries:4 in
  Store_buffer.push stb (entry 0x1000L 8 0x1122334455667788L);
  (match Store_buffer.forward stb ~addr:0x1000L ~size:8 with
  | Store_buffer.Forwarded v -> Alcotest.(check word) "full forward" 0x1122334455667788L v
  | _ -> Alcotest.fail "expected forward");
  (match Store_buffer.forward stb ~addr:0x1002L ~size:2 with
  | Store_buffer.Forwarded v -> Alcotest.(check word) "sub-word forward" 0x5566L v
  | _ -> Alcotest.fail "expected sub-word forward");
  Alcotest.(check bool) "other address misses" true
    (Store_buffer.forward stb ~addr:0x2000L ~size:8 = Store_buffer.No_match);
  (* A load extending past the covering store is a forwarding conflict. *)
  Alcotest.(check bool) "partial coverage conflicts" true
    (Store_buffer.forward stb ~addr:0x1004L ~size:8 = Store_buffer.Partial_conflict)

let test_stb_youngest_wins () =
  let stb = Store_buffer.create ~entries:4 in
  Store_buffer.push stb (entry 0x1000L 8 1L);
  Store_buffer.push stb (entry 0x1000L 8 2L);
  (match Store_buffer.forward stb ~addr:0x1000L ~size:8 with
  | Store_buffer.Forwarded v -> Alcotest.(check word) "youngest store wins" 2L v
  | _ -> Alcotest.fail "expected forward")

let test_stb_drain_order () =
  let stb = Store_buffer.create ~entries:4 in
  Store_buffer.push stb (entry 0x1000L 8 1L);
  Store_buffer.push stb (entry 0x2000L 8 2L);
  let drained = Store_buffer.drain stb in
  Alcotest.(check (list int64)) "oldest first"
    [ 1L; 2L ]
    (List.map (fun (e : Store_buffer.entry) -> e.Store_buffer.value) drained);
  Alcotest.(check int) "empty after drain" 0 (Store_buffer.occupancy stb)

let test_stb_capacity () =
  let stb = Store_buffer.create ~entries:2 in
  Alcotest.(check bool) "not full" false (Store_buffer.is_full stb);
  Store_buffer.push stb (entry 0x1000L 8 1L);
  Store_buffer.push stb (entry 0x2000L 8 2L);
  Alcotest.(check bool) "full at capacity" true (Store_buffer.is_full stb)

(* {1 TLB} *)

let test_tlb () =
  let tlb = Tlb.create ~entries:2 in
  Alcotest.(check bool) "empty" true (Tlb.lookup tlb ~vaddr:0x4000_0123L = None);
  Tlb.insert tlb ~vaddr:0x4000_0000L ~paddr:0x8004_0000L ~perm:Page_table.user_rw;
  (match Tlb.lookup tlb ~vaddr:0x4000_0123L with
  | Some e ->
    Alcotest.(check word) "translation" 0x8004_0123L (Tlb.translate e ~vaddr:0x4000_0123L)
  | None -> Alcotest.fail "expected hit");
  (* Same page re-insert reuses the slot. *)
  Tlb.insert tlb ~vaddr:0x4000_0000L ~paddr:0x8005_0000L ~perm:Page_table.user_rw;
  Alcotest.(check int) "no duplicate entries" 1 (Tlb.occupancy tlb);
  Tlb.flush tlb;
  Alcotest.(check int) "flush empties" 0 (Tlb.occupancy tlb)

let test_tlb_eviction () =
  let tlb = Tlb.create ~entries:2 in
  List.iter
    (fun i ->
      Tlb.insert tlb
        ~vaddr:(Int64.of_int (0x4000_0000 + (i * 4096)))
        ~paddr:(Int64.of_int (0x8004_0000 + (i * 4096)))
        ~perm:Page_table.user_rw)
    [ 0; 1; 2 ];
  Alcotest.(check int) "bounded occupancy" 2 (Tlb.occupancy tlb);
  Alcotest.(check bool) "round-robin evicted first entry" true
    (Tlb.lookup tlb ~vaddr:0x4000_0000L = None)

(* {1 BTB} *)

let test_btb_partial_tags_alias () =
  let btb = Btb.create ~entries:1024 ~tag_bits:16 ~ways:1 () in
  let host_pc = 0x8000_0008L in
  let enclave_pc = 0x8800_0008L in
  (* Bit 27 is above index (10 bits) + tag (16 bits) + offset (1). *)
  Alcotest.(check bool) "aliasing PCs" true (Btb.aliases btb ~pc1:host_pc ~pc2:enclave_pc);
  Alcotest.(check bool) "different low bits do not alias" false
    (Btb.aliases btb ~pc1:host_pc ~pc2:0x8000_000CL);
  (* PCs differing inside the tag range do not alias. *)
  Alcotest.(check bool) "tag bits distinguish" false
    (Btb.aliases btb ~pc1:host_pc ~pc2:0x8001_0008L)

let test_btb_update_lookup () =
  let btb = Btb.create ~entries:1024 ~tag_bits:16 ~ways:1 () in
  let pc = 0x8000_0008L in
  Alcotest.(check bool) "cold miss" true (Btb.lookup btb ~pc = None);
  let _set, _entry = Btb.update btb ~pc ~target:0x8000_0010L ~taken:true ~owner:host_s in
  (match Btb.lookup btb ~pc with
  | Some e ->
    Alcotest.(check bool) "taken recorded" true e.Btb.taken;
    Alcotest.(check word) "target recorded" 0x8000_0010L e.Btb.target
  | None -> Alcotest.fail "expected hit");
  (* An aliasing enclave branch overwrites the direction. *)
  let _ =
    Btb.update btb ~pc:0x8800_0008L ~target:0x8800_0020L ~taken:false
      ~owner:(Exec_context.Enclave 0)
  in
  (match Btb.lookup btb ~pc with
  | Some e ->
    Alcotest.(check bool) "direction flipped by aliasing branch" false e.Btb.taken;
    Alcotest.(check bool) "owner is the enclave" true
      (Exec_context.equal e.Btb.owner (Exec_context.Enclave 0))
  | None -> Alcotest.fail "expected hit after alias")

let test_btb_residue_and_flush () =
  let btb = Btb.create ~entries:1024 ~tag_bits:16 ~ways:1 () in
  let _ = Btb.update btb ~pc:0x8800_0008L ~target:0L ~taken:true ~owner:(Exec_context.Enclave 0) in
  let _ = Btb.update btb ~pc:0x8000_0100L ~target:0L ~taken:true ~owner:host_s in
  Alcotest.(check int) "two entries" 2 (Btb.occupancy btb);
  Btb.flush btb;
  Alcotest.(check int) "flush clears" 0 (Btb.occupancy btb);
  Alcotest.(check int) "no residue after flush" 0
    (List.length (snapshot_entries (Btb.snapshot btb)))

let test_btb_owner_tagging () =
  let btb = Btb.create ~tagged_by_owner:true ~entries:1024 ~tag_bits:16 ~ways:1 () in
  let pc = 0x8000_0008L in
  let _ =
    Btb.update btb ~pc:0x8800_0008L ~target:0L ~taken:true ~owner:(Exec_context.Enclave 0)
  in
  (* The raw entry is there... *)
  Alcotest.(check bool) "entry resident" true (Btb.lookup btb ~pc <> None);
  (* ...but a host fetch does not hit it. *)
  Alcotest.(check bool) "host prediction filtered" true
    (Btb.predict btb ~pc ~ctx:host_s = None);
  Alcotest.(check bool) "enclave prediction hits" true
    (Btb.predict btb ~pc:0x8800_0008L ~ctx:(Exec_context.Enclave 0) <> None);
  (* Without tagging, predict behaves like lookup. *)
  let plain = Btb.create ~entries:1024 ~tag_bits:16 ~ways:1 () in
  let _ = Btb.update plain ~pc:0x8800_0008L ~target:0L ~taken:true ~owner:(Exec_context.Enclave 0) in
  Alcotest.(check bool) "untagged predict hits cross-domain" true
    (Btb.predict plain ~pc ~ctx:host_s <> None);
  (* The snapshot marks tagged entries for the checker. *)
  let marked =
    List.exists
      (fun (e : Log.entry) ->
        let n = e.Log.note in
        let needle = "id-tagged" in
        let rec at i =
          i + String.length needle <= String.length n
          && (String.sub n i (String.length needle) = needle || at (i + 1))
        in
        at 0)
      (snapshot_entries (Btb.snapshot btb))
  in
  Alcotest.(check bool) "snapshot marks id-tagged" true marked

let test_btb_set_associative () =
  let btb = Btb.create ~entries:16 ~tag_bits:8 ~ways:4 () in
  (* Fill all four ways of one set with distinct tags. *)
  let pcs =
    (* 4 sets -> index bits [2:1]; tags differ at bit 3 upward. *)
    List.map (fun i -> Int64.of_int ((i * 8) lor 0b010)) [ 1; 2; 3; 4 ]
  in
  List.iter (fun pc -> ignore (Btb.update btb ~pc ~target:pc ~taken:true ~owner:host_s)) pcs;
  List.iter
    (fun pc ->
      Alcotest.(check bool)
        (Printf.sprintf "pc %Ld resident" pc)
        true
        (Btb.lookup btb ~pc <> None))
    pcs;
  (* A fifth conflicting branch evicts one of them. *)
  ignore (Btb.update btb ~pc:50L ~target:50L ~taken:true ~owner:host_s);
  let resident = List.filter (fun pc -> Btb.lookup btb ~pc <> None) pcs in
  Alcotest.(check int) "one way reclaimed" 3 (List.length resident)

(* The BTB's round-robin pointers are shared copy-on-write like the
   cache's: one set of four ways, where a fifth branch has replaced way
   0, so the capture's next victim is way 1. *)
let test_btb_capture_shares_ways () =
  let pc i = Int64.of_int (i * 8) in
  let install b i = ignore (Btb.update b ~pc:(pc i) ~target:(pc i) ~taken:true ~owner:host_s) in
  let resident b = List.filter (fun i -> Btb.lookup b ~pc:(pc i) <> None) (List.init 12 Fun.id) in
  let live = Btb.create ~entries:4 ~tag_bits:8 ~ways:4 () in
  List.iter (install live) [ 0; 1; 2; 3; 4 ];
  let cap = Btb.capture live in
  install live 5;
  install live 6;
  Alcotest.(check (list int)) "the source replaced ways 1 and 2" [ 3; 4; 5; 6 ] (resident live);
  let a = Btb.create ~entries:4 ~tag_bits:8 ~ways:4 () in
  let b = Btb.create ~entries:4 ~tag_bits:8 ~ways:4 () in
  Btb.restore_capture cap ~into:a;
  Btb.restore_capture cap ~into:b;
  install a 7;
  install a 8;
  Alcotest.(check (list int)) "restored: the captured order" [ 3; 4; 7; 8 ] (resident a);
  install b 9;
  Alcotest.(check (list int)) "a second restore evicts independently" [ 2; 3; 4; 9 ]
    (resident b);
  let c = Btb.create ~entries:4 ~tag_bits:8 ~ways:4 () in
  Btb.restore_capture cap ~into:c;
  install c 10;
  Alcotest.(check (list int)) "the capture is unchanged" [ 2; 3; 4; 10 ] (resident c);
  install live 11;
  Alcotest.(check (list int)) "the source kept its own order" [ 4; 5; 6; 11 ] (resident live)

(* {1 HPC} *)

let test_hpc_bump_read () =
  let csr = Csr.create () in
  Hpc.bump csr Hpc.L1d_miss;
  Hpc.bump csr Hpc.L1d_miss;
  Hpc.bump csr Hpc.Branch;
  Alcotest.(check word) "l1d miss" 2L (Hpc.read csr Hpc.L1d_miss);
  Alcotest.(check word) "branch" 1L (Hpc.read csr Hpc.Branch);
  Alcotest.(check word) "untouched" 0L (Hpc.read csr Hpc.Dtlb_miss);
  let snapshot = snapshot_entries (Hpc.snapshot csr) in
  Alcotest.(check int) "snapshot covers all counters"
    (List.length Csr.modelled_counters) (List.length snapshot)

let test_hpc_distinct_indices () =
  let indices = List.map Hpc.counter_index Hpc.all_events in
  Alcotest.(check int) "distinct counter indices" (List.length Hpc.all_events)
    (List.length (List.sort_uniq compare indices))

(* {1 Regfile} *)

let test_regfile () =
  let rf = Regfile.create ~regs:4 in
  Alcotest.(check bool) "empty" false (Regfile.holds_value rf 42L);
  let s0 = Regfile.writeback rf ~value:42L ~ctx:host_s ~transient:false in
  Alcotest.(check bool) "value present" true (Regfile.holds_value rf 42L);
  (* Round-robin reuse eventually overwrites. *)
  for i = 0 to 3 do
    ignore (Regfile.writeback rf ~value:(Int64.of_int i) ~ctx:host_s ~transient:true)
  done;
  Alcotest.(check bool) "overwritten after wrap" false (Regfile.holds_value rf 42L);
  Alcotest.(check bool) "slot index in range" true (s0 >= 0 && s0 < 4);
  let snapshot = snapshot_entries (Regfile.snapshot rf) in
  Alcotest.(check int) "all slots in use" 4 (List.length snapshot);
  Alcotest.(check bool) "transient marked in notes" true
    (List.exists
       (fun (e : Log.entry) ->
         let n = e.Log.note in
         String.length n >= 9 && String.sub n (String.length n - 9) 9 = "transient")
       snapshot)

(* A restored copy is independent of the file it was copied from, and
   of every other file restored from it. *)
let test_regfile_restore_independent () =
  let rf = Regfile.create ~regs:4 in
  ignore (Regfile.writeback rf ~value:0x10L ~ctx:host_s ~transient:false);
  ignore (Regfile.writeback rf ~value:0x20L ~ctx:host_s ~transient:true);
  let snap = Regfile.copy rf in
  let a = Regfile.create ~regs:4 in
  Regfile.restore_into snap ~into:a;
  Alcotest.(check int) "write-back continues after the restored ones" 2
    (Regfile.writeback a ~value:0x30L ~ctx:host_s ~transient:false);
  Alcotest.(check (option (pair int word))) "corrupt the first register in use"
    (Some (0, 0x11L)) (Regfile.corrupt_bit a ~select:0 ~bit:0);
  Alcotest.(check bool) "the restored file holds its writes" true
    (Regfile.holds_value a 0x30L && Regfile.holds_value a 0x11L);
  Alcotest.(check bool) "the source does not" false
    (Regfile.holds_value rf 0x30L || Regfile.holds_value rf 0x11L);
  Alcotest.(check bool) "nor does the copy" false
    (Regfile.holds_value snap 0x30L || Regfile.holds_value snap 0x11L);
  Alcotest.(check bool) "both still hold the originals" true
    (Regfile.holds_value rf 0x10L && Regfile.holds_value snap 0x10L);
  ignore (Regfile.writeback rf ~value:0x40L ~ctx:host_s ~transient:false);
  ignore (Regfile.corrupt_bit rf ~select:0 ~bit:1);
  Alcotest.(check bool) "the source's writes stay in the source" false
    (Regfile.holds_value snap 0x40L || Regfile.holds_value a 0x40L
    || Regfile.holds_value snap 0x12L);
  Regfile.restore_into snap ~into:a;
  Alcotest.(check bool) "restoring again undoes the writes" true
    (Regfile.holds_value a 0x10L && Regfile.holds_value a 0x20L
    && not (Regfile.holds_value a 0x30L || Regfile.holds_value a 0x11L));
  Alcotest.(check int) "and the free-list position" 2
    (Regfile.writeback a ~value:0x50L ~ctx:host_s ~transient:false)

(* {1 Machine: micro-op level} *)

(* A machine with an allow-all PMP and a protected window, mirroring the
   monitor's host view. *)
let machine_with_pmp config =
  let m = Machine.create config in
  let pmp = Machine.pmp m in
  Pmp.set pmp 0
    (Pmp.napot_entry ~base:0x8800_0000L ~size:0x1_0000 ~perm:Pmp.no_access ~locked:false);
  Pmp.set pmp 15
    (Pmp.napot_entry ~base:0x8000_0000L ~size:0x8000_0000 ~perm:Pmp.full_access
       ~locked:false);
  Machine.set_context m host_s;
  m

let test_load_store_roundtrip () =
  let m = machine_with_pmp Config.boom in
  let fault = Machine.store m ~vaddr:0x8000_1000L ~size:8 ~value:0x1234L () in
  Alcotest.(check bool) "store ok" true (fault = None);
  Machine.fence m;
  let r = Machine.load m ~vaddr:0x8000_1000L ~size:8 () in
  Alcotest.(check bool) "load ok" true (r.Machine.fault = None);
  Alcotest.(check word) "value" 0x1234L r.Machine.value

let test_store_to_load_forward () =
  let m = machine_with_pmp Config.xiangshan in
  ignore (Machine.store m ~vaddr:0x8000_1000L ~size:8 ~value:0xABCDL ());
  (* No fence: the load must be satisfied by the store buffer. *)
  let r = Machine.load m ~vaddr:0x8000_1000L ~size:8 () in
  Alcotest.(check word) "forwarded" 0xABCDL r.Machine.value;
  Alcotest.(check word) "stlf counted" 1L (Hpc.read (Machine.csr m) Hpc.Store_to_load_forward)

let test_load_miss_then_hit_latency () =
  let m = machine_with_pmp Config.xiangshan in
  Memory.write (Machine.memory m) ~addr:0x8000_2000L ~size:8 77L;
  let miss = Machine.load m ~vaddr:0x8000_2000L ~size:8 () in
  let hit = Machine.load m ~vaddr:0x8000_2000L ~size:8 () in
  Alcotest.(check word) "miss value" 77L miss.Machine.value;
  Alcotest.(check word) "hit value" 77L hit.Machine.value;
  Alcotest.(check bool) "hit faster than miss" true (hit.Machine.latency < miss.Machine.latency);
  Alcotest.(check int) "hit latency is the configured L1 latency"
    Config.xiangshan.Config.latencies.Config.l1_hit hit.Machine.latency

let test_misaligned_load () =
  let m = machine_with_pmp Config.boom in
  Memory.write (Machine.memory m) ~addr:0x8000_3000L ~size:8 0x1122334455667788L;
  Memory.write (Machine.memory m) ~addr:0x8000_3008L ~size:8 0xAABBCCDDEEFF0011L;
  let r = Machine.load m ~vaddr:0x8000_3004L ~size:8 () in
  Alcotest.(check bool) "no fault" true (r.Machine.fault = None);
  Alcotest.(check word) "assembled across granules" 0xEEFF001111223344L r.Machine.value

let secret_addr = 0x8800_8000L
let secret_value = 0x5EC4E7_0F_D00DL

(* Place a protected secret in the machine's L1 by loading it from
   machine mode (which bypasses the unlocked PMP entry). *)
let warm_secret_into_l1 m =
  Memory.write (Machine.memory m) ~addr:secret_addr ~size:8 secret_value;
  Machine.set_context m Exec_context.Monitor;
  ignore (Machine.load m ~vaddr:secret_addr ~size:8 ());
  Machine.set_context m host_s

let test_faulting_load_l1_hit_forwards () =
  List.iter
    (fun config ->
      let m = machine_with_pmp config in
      warm_secret_into_l1 m;
      let r = Machine.load m ~vaddr:secret_addr ~size:8 () in
      Alcotest.(check bool) "fault raised" true (r.Machine.fault <> None);
      Alcotest.(check bool) "transient forward" true r.Machine.transient_forward;
      Alcotest.(check word) "secret forwarded" secret_value r.Machine.value;
      Alcotest.(check bool) "secret in physical RF" true (Machine.rf_holds m secret_value))
    [ Config.boom; Config.xiangshan ]

let test_faulting_miss_boom_fills_lfb () =
  let m = machine_with_pmp Config.boom in
  Memory.write (Machine.memory m) ~addr:secret_addr ~size:8 secret_value;
  let r = Machine.load m ~vaddr:secret_addr ~size:8 () in
  Alcotest.(check bool) "fault raised" true (r.Machine.fault <> None);
  Alcotest.(check bool) "no RF forward on the miss path" false r.Machine.transient_forward;
  Alcotest.(check bool) "BOOM: secret line in LFB" true (Machine.lfb_holds m secret_value)

let test_faulting_miss_xs_fake_hit () =
  let m = machine_with_pmp Config.xiangshan in
  Memory.write (Machine.memory m) ~addr:secret_addr ~size:8 secret_value;
  let r = Machine.load m ~vaddr:secret_addr ~size:8 () in
  Alcotest.(check bool) "fault raised" true (r.Machine.fault <> None);
  Alcotest.(check word) "fake hit returns zero" 0L r.Machine.value;
  Alcotest.(check bool) "XS: no LFB fill" false (Machine.lfb_holds m secret_value);
  Alcotest.(check int) "slower miss response"
    Config.xiangshan.Config.latencies.Config.l1_miss r.Machine.latency

let test_faulting_load_stb_forward_xs_only () =
  let run config =
    let m = machine_with_pmp config in
    (* An enclave-style store left pending in the buffer. *)
    Machine.set_context m (Exec_context.Enclave 0);
    let pmp = Machine.pmp m in
    Pmp.set pmp 0
      (Pmp.napot_entry ~base:0x8800_0000L ~size:0x1_0000 ~perm:Pmp.full_access
         ~locked:false);
    ignore (Machine.store m ~vaddr:secret_addr ~size:8 ~value:secret_value ());
    Pmp.set pmp 0
      (Pmp.napot_entry ~base:0x8800_0000L ~size:0x1_0000 ~perm:Pmp.no_access
         ~locked:false);
    Machine.set_context m host_s;
    Machine.load m ~vaddr:secret_addr ~size:8 ()
  in
  let xs = run Config.xiangshan in
  Alcotest.(check bool) "XS forwards transiently" true xs.Machine.transient_forward;
  Alcotest.(check word) "XS forwards the secret" secret_value xs.Machine.value;
  let boom = run Config.boom in
  Alcotest.(check bool) "BOOM does not forward from the buffer" true
    (not (Int64.equal boom.Machine.value secret_value))

let test_clear_illegal_data_returns () =
  let config = Config.with_mitigations Config.boom [ Mitigation.Clear_illegal_data_returns ] in
  let m = machine_with_pmp config in
  warm_secret_into_l1 m;
  let r = Machine.load m ~vaddr:secret_addr ~size:8 () in
  Alcotest.(check bool) "fault still raised" true (r.Machine.fault <> None);
  Alcotest.(check word) "data zeroed" 0L r.Machine.value;
  Alcotest.(check bool) "no transient forward" false r.Machine.transient_forward;
  (* And the miss path no longer fills the LFB. *)
  let m2 = machine_with_pmp config in
  Memory.write (Machine.memory m2) ~addr:secret_addr ~size:8 secret_value;
  ignore (Machine.load m2 ~vaddr:secret_addr ~size:8 ());
  Alcotest.(check bool) "no LFB fill under mitigation" false
    (Machine.lfb_holds m2 secret_value)

let test_store_fault_no_side_effect () =
  let m = machine_with_pmp Config.boom in
  let fault = Machine.store m ~vaddr:secret_addr ~size:8 ~value:1L () in
  Alcotest.(check bool) "store faults" true (fault <> None);
  Alcotest.(check int) "nothing buffered" 0 (Machine.store_buffer_occupancy m);
  Machine.fence m;
  Alcotest.(check word) "memory untouched" 0L
    (Memory.read (Machine.memory m) ~addr:secret_addr ~size:8)

let test_prefetcher_no_permission_check () =
  let m = machine_with_pmp Config.boom in
  Memory.write (Machine.memory m) ~addr:0x8800_0000L ~size:8 secret_value;
  (* Legal load in the last line before the protected region. *)
  let r = Machine.load m ~vaddr:0x87FF_FFF8L ~size:8 () in
  Alcotest.(check bool) "demand load legal" true (r.Machine.fault = None);
  Alcotest.(check bool) "prefetcher pulled the protected line" true
    (Machine.lfb_holds m secret_value)

let test_no_prefetcher_on_xs () =
  let m = machine_with_pmp Config.xiangshan in
  Memory.write (Machine.memory m) ~addr:0x8800_0000L ~size:8 secret_value;
  ignore (Machine.load m ~vaddr:0x87FF_FFF8L ~size:8 ());
  Alcotest.(check bool) "no prefetch on XiangShan" false (Machine.lfb_holds m secret_value)

(* {1 Machine: translation and page walks} *)

let with_page_tables m =
  let mem = Machine.memory m in
  let b = Page_table.create_builder mem ~table_region:0x8020_0000L () in
  Page_table.map_range b ~vaddr:0x4000_0000L ~paddr:0x8004_0000L ~size:8192L
    ~perm:Page_table.supervisor_rw;
  Csr.raw_write (Machine.csr m) Csr.Satp (Page_table.satp_of_root (Page_table.root b))

let test_translated_load () =
  let m = machine_with_pmp Config.boom in
  with_page_tables m;
  Memory.write (Machine.memory m) ~addr:0x8004_0100L ~size:8 0x600DL;
  let r = Machine.load m ~vaddr:0x4000_0100L ~size:8 () in
  Alcotest.(check bool) "no fault" true (r.Machine.fault = None);
  Alcotest.(check word) "translated load value" 0x600DL r.Machine.value;
  Alcotest.(check word) "tlb miss counted" 1L (Hpc.read (Machine.csr m) Hpc.Dtlb_miss);
  (* Second access hits the TLB: no further walk. *)
  let walks_before = Hpc.read (Machine.csr m) Hpc.Ptw_walk_event in
  ignore (Machine.load m ~vaddr:0x4000_0108L ~size:8 ());
  Alcotest.(check word) "no second walk" walks_before
    (Hpc.read (Machine.csr m) Hpc.Ptw_walk_event)

let test_unmapped_vaddr_page_faults () =
  let m = machine_with_pmp Config.boom in
  with_page_tables m;
  let r = Machine.load m ~vaddr:0x5000_0000L ~size:8 () in
  (match r.Machine.fault with
  | Some { Machine.cause = Machine.Load_page_fault; _ } -> ()
  | _ -> Alcotest.fail "expected load page fault")

let test_hijacked_satp_boom_vs_xs () =
  let run config =
    let m = machine_with_pmp config in
    Memory.write (Machine.memory m) ~addr:secret_addr ~size:8 secret_value;
    (* satp points straight into the protected region. *)
    Csr.raw_write (Machine.csr m) Csr.Satp (Page_table.satp_of_root secret_addr);
    let r = Machine.load m ~vaddr:0L ~size:8 () in
    (r, m)
  in
  let r_boom, m_boom = run Config.boom in
  Alcotest.(check bool) "BOOM walk faults" true (r_boom.Machine.fault <> None);
  Alcotest.(check bool) "BOOM: PTE line leaked into LFB" true
    (Machine.lfb_holds m_boom secret_value);
  let r_xs, m_xs = run Config.xiangshan in
  Alcotest.(check bool) "XS walk faults" true (r_xs.Machine.fault <> None);
  Alcotest.(check bool) "XS: PMP pre-check suppresses the request" false
    (Machine.lfb_holds m_xs secret_value)

(* {1 Machine: program execution} *)

let run_program m instrs =
  Machine.run m (Program.of_instrs ~base:0x8000_0000L instrs)

let test_interpreter_alu () =
  let m = machine_with_pmp Config.boom in
  let stop =
    run_program m
      [
        Instr.Li (Instr.t0, 40L);
        Instr.Li (Instr.t1, 2L);
        Instr.Alu (Instr.Add, Instr.a0, Instr.t0, Instr.t1);
        Instr.Alui (Instr.Sll, Instr.a1, Instr.a0, 1L);
        Instr.Alu (Instr.Xor, Instr.a2, Instr.a1, Instr.a0);
        Instr.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Machine.Halted);
  Alcotest.(check word) "add" 42L (Machine.get_reg m Instr.a0);
  Alcotest.(check word) "shift" 84L (Machine.get_reg m Instr.a1);
  Alcotest.(check word) "xor" (Int64.logxor 84L 42L) (Machine.get_reg m Instr.a2)

let test_interpreter_x0_hardwired () =
  let m = machine_with_pmp Config.boom in
  ignore (run_program m [ Instr.Li (0, 99L); Instr.Alu (Instr.Add, Instr.a0, 0, 0); Instr.Halt ]);
  Alcotest.(check word) "x0 stays zero" 0L (Machine.get_reg m Instr.a0)

let test_interpreter_branch_loop () =
  let m = machine_with_pmp Config.boom in
  let prog =
    Program.assemble ~base:0x8000_0000L
      [
        Program.Instr (Instr.Li (Instr.t0, 0L));
        Program.Instr (Instr.Li (Instr.t1, 5L));
        Program.Label "loop";
        Program.Instr (Instr.Alui (Instr.Add, Instr.t0, Instr.t0, 1L));
        Program.Instr (Instr.Branch (Instr.Lt, Instr.t0, Instr.t1, "loop"));
        Program.Instr Instr.Halt;
      ]
  in
  Alcotest.(check bool) "halts" true (Machine.run m prog = Machine.Halted);
  Alcotest.(check word) "loop counted to 5" 5L (Machine.get_reg m Instr.t0);
  Alcotest.(check word) "branches counted" 5L (Hpc.read (Machine.csr m) Hpc.Branch)

let test_interpreter_faulting_load_skipped () =
  let m = machine_with_pmp Config.boom in
  warm_secret_into_l1 m;
  let stop =
    run_program m
      [
        Instr.Li (Instr.a5, 0x1111L);
        Instr.Li (Instr.a4, secret_addr);
        Instr.ld Instr.a5 Instr.a4 0L;
        Instr.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Machine.Halted);
  (* The architectural destination is unchanged; the physical register
     file still received the transient value. *)
  Alcotest.(check word) "architectural rd preserved" 0x1111L (Machine.get_reg m Instr.a5);
  Alcotest.(check bool) "transient value in phys RF" true (Machine.rf_holds m secret_value)

let test_interpreter_csr_access () =
  let m = machine_with_pmp Config.boom in
  ignore
    (run_program m
       [ Instr.Li (Instr.t0, 0x42L); Instr.Csrw (Csr.Satp, Instr.t0);
         Instr.Csrr (Instr.a0, Csr.Satp); Instr.Halt ]);
  Alcotest.(check word) "csr write/read through program" 0x42L (Machine.get_reg m Instr.a0)

let test_lazy_vs_early_csr_check () =
  let marker = 0xFEED_F00D_0001L in
  let run config =
    let m = machine_with_pmp config in
    Csr.raw_write (Machine.csr m) (Csr.Mhpmcounter 4) marker;
    ignore (run_program m [ Instr.Csrr (Instr.a0, Csr.Mhpmcounter 4); Instr.Halt ]);
    m
  in
  let m_xs = run Config.xiangshan in
  Alcotest.(check word) "architectural register protected on XS" 0L
    (Machine.get_reg m_xs Instr.a0);
  Alcotest.(check bool) "XS lazily wrote the value back transiently" true
    (Machine.rf_holds m_xs marker);
  let m_boom = run Config.boom in
  Alcotest.(check bool) "BOOM early check writes nothing" false
    (Machine.rf_holds m_boom marker)

let test_step_limit () =
  let m = machine_with_pmp Config.boom in
  let prog =
    Program.assemble ~base:0x8000_0000L
      [ Program.Label "spin"; Program.Instr (Instr.Jal "spin") ]
  in
  Alcotest.(check bool) "infinite loop hits the step limit" true
    (Machine.run m prog = Machine.Step_limit)

let test_out_of_program () =
  let m = machine_with_pmp Config.boom in
  Alcotest.(check bool) "running off the end stops" true
    (run_program m [ Instr.Nop ] = Machine.Out_of_program)

(* {1 Machine: context switches, snapshots and flushes} *)

let test_hpc_banking_on_switch () =
  let config =
    Config.with_mitigations Config.xiangshan [ Mitigation.Tag_bpu_hpc ]
  in
  let m = machine_with_pmp config in
  (* Host accumulates some events. *)
  Memory.write (Machine.memory m) ~addr:0x8000_9000L ~size:8 1L;
  ignore (Machine.load m ~vaddr:0x8000_9000L ~size:8 ());
  let host_misses = Hpc.read (Machine.csr m) Hpc.L1d_miss in
  Alcotest.(check bool) "host saw misses" true (Int64.compare host_misses 0L > 0);
  (* Entering another domain swaps in a zeroed bank. *)
  Machine.switch_context m ~to_ctx:(Exec_context.Enclave 0);
  Alcotest.(check int64) "enclave bank starts empty" 0L
    (Hpc.read (Machine.csr m) Hpc.L1d_miss);
  ignore (Machine.load m ~vaddr:0x8000_9100L ~size:8 ());
  (* Returning restores the host's own counts: the enclave's activity is
     invisible. *)
  Machine.switch_context m ~to_ctx:host_s;
  Alcotest.(check int64) "host bank restored unchanged" host_misses
    (Hpc.read (Machine.csr m) Hpc.L1d_miss)

let test_boom_v2_config () =
  Alcotest.(check bool) "v2 is a BOOM" true (Config.boom_v2.Config.kind = Config.Boom);
  Alcotest.(check bool) "smaller LFB" true
    (Config.boom_v2.Config.lfb_entries < Config.boom.Config.lfb_entries);
  Alcotest.(check bool) "same prefetcher behaviour" true
    Config.boom_v2.Config.has_l1_prefetcher;
  Alcotest.(check bool) "same stale LFB behaviour" true
    Config.boom_v2.Config.lfb_retains_stale;
  Alcotest.(check bool) "lookup by name" true
    (Config.of_core_name "boom-v2" <> None)

let test_switch_context_snapshots () =
  let m = machine_with_pmp Config.boom in
  let before = Log.length (Machine.log m) in
  Machine.switch_context m ~to_ctx:Exec_context.Monitor;
  let records = Log.to_list (Machine.log m) in
  let snapshots =
    List.filter
      (fun (r : Log.record) ->
        match r.Log.event with Log.Snapshot _ -> true | _ -> false)
      records
  in
  Alcotest.(check bool) "records appended" true (Log.length (Machine.log m) > before);
  (* One snapshot per structure we model. *)
  Alcotest.(check int) "13 structure snapshots" 13 (List.length snapshots);
  Alcotest.(check bool) "context changed" true
    (Exec_context.equal (Machine.context m) Exec_context.Monitor)

let test_mitigation_flushes_on_switch () =
  let config =
    Config.with_mitigations Config.boom [ Mitigation.Flush_everything ]
  in
  let m = machine_with_pmp config in
  warm_secret_into_l1 m;
  Memory.write (Machine.memory m) ~addr:0x8000_4000L ~size:8 1L;
  ignore (Machine.load m ~vaddr:0x8000_4000L ~size:8 ());
  Alcotest.(check bool) "line cached" true (Machine.l1_contains m ~addr:0x8000_4000L);
  Machine.switch_context m ~to_ctx:Exec_context.Monitor;
  Alcotest.(check bool) "l1 flushed" false (Machine.l1_contains m ~addr:0x8000_4000L);
  Alcotest.(check bool) "secret flushed from L1" false
    (Machine.l1_contains m ~addr:secret_addr);
  (* Flushed data is still architecturally reachable (write-back). *)
  Machine.set_context m host_s;
  let r = Machine.load m ~vaddr:0x8000_4000L ~size:8 () in
  Alcotest.(check word) "data survived the flush" 1L r.Machine.value

let test_evict_line_l2 () =
  let m = machine_with_pmp Config.boom in
  Memory.write (Machine.memory m) ~addr:0x8000_5000L ~size:8 9L;
  ignore (Machine.load m ~vaddr:0x8000_5000L ~size:8 ());
  Machine.evict_line m ~addr:0x8000_5000L;
  Alcotest.(check bool) "in l2 after l1 eviction" true (Machine.l2_contains m ~addr:0x8000_5000L);
  Machine.evict_line_l2 m ~addr:0x8000_5000L;
  Alcotest.(check bool) "gone from l2" false (Machine.l2_contains m ~addr:0x8000_5000L);
  let r = Machine.load m ~vaddr:0x8000_5000L ~size:8 () in
  Alcotest.(check word) "memory still has it" 9L r.Machine.value

let test_memset_region () =
  let m = machine_with_pmp Config.boom in
  Machine.set_context m Exec_context.Monitor;
  Memory.write (Machine.memory m) ~addr:0x8000_6000L ~size:8 0xDEADL;
  Machine.memset_region m ~origin:Log.Memset_destroy ~addr:0x8000_6000L ~size:128L
    ~value:0L;
  let r = Machine.load m ~vaddr:0x8000_6000L ~size:8 () in
  Alcotest.(check word) "zeroed through the hierarchy" 0L r.Machine.value;
  (* The refill dragged the old value through the LFB (stale retention). *)
  Alcotest.(check bool) "old data visible in stale LFB" true (Machine.lfb_holds m 0xDEADL)

let test_wb_buffer_ring () =
  (* Dirty victims rotate through a small write-back ring whose stale
     contents stay visible to the checker. *)
  let m = machine_with_pmp Config.boom in
  let entries = Config.boom.Config.wb_buffer_entries in
  (* Dirty lines in the same set force evictions: with 64 sets x 64B the
     set stride is 4 KiB; 4 ways + victims beyond that evict. *)
  for i = 0 to Config.boom.Config.l1_ways + entries do
    let addr = Int64.add 0x8001_0000L (Int64.of_int (i * 4096)) in
    ignore (Machine.store m ~vaddr:addr ~size:8 ~value:(Int64.of_int (0xAB00 + i)) ());
    Machine.fence m
  done;
  (* The last [entries] evicted dirty lines are observable in the ring. *)
  let wb_writes =
    List.filter
      (fun (r : Log.record) ->
        match r.Log.event with
        | Log.Write { structure = Structure.Wb_buffer; _ } -> true
        | _ -> false)
      (Log.to_list (Machine.log m))
  in
  Alcotest.(check bool) "several wb-buffer writes logged" true
    (List.length wb_writes >= entries);
  (* Distinct ring slots were used. *)
  let slots =
    List.sort_uniq compare
      (List.concat_map
         (fun (r : Log.record) ->
           match r.Log.event with
           | Log.Write { structure = Structure.Wb_buffer; entries; _ } ->
             List.map (fun (e : Log.entry) -> e.Log.slot) entries
           | _ -> [])
         wb_writes)
  in
  Alcotest.(check int) "ring uses all slots" entries (List.length slots)

(* {1 Binary execution through the I-cache} *)

let test_run_binary_matches_program () =
  let prog =
    Program.assemble ~base:0x8000_0000L
      [
        Program.Instr (Instr.Li (5, 0xDEAD_BEEF_0001L));
        Program.Instr (Instr.Li (6, 0x8004_2000L));
        Program.Instr (Instr.sd 5 6 0L);
        Program.Instr (Instr.ld 7 6 0L);
        Program.Label "loop";
        Program.Instr (Instr.Alui (Instr.Add, 8, 8, 1L));
        Program.Instr (Instr.Branch (Instr.Lt, 8, 7, "done"));
        Program.Instr (Instr.Jal "loop");
        Program.Label "done";
        Program.Instr Instr.Halt;
      ]
  in
  let m1 = machine_with_pmp Config.boom in
  let stop1 = Machine.run m1 prog in
  let m2 = machine_with_pmp Config.boom in
  let words = Riscv.Encode.assemble prog in
  (match Machine.run_binary m2 ~base:0x8000_0000L words with
  | Ok stop2 ->
    Alcotest.(check bool) "both halt" true (stop1 = Machine.Halted && stop2 = Machine.Halted)
  | Error msg -> Alcotest.failf "run_binary: %s" msg);
  List.iter
    (fun r ->
      Alcotest.(check word)
        (Printf.sprintf "x%d agrees" r)
        (Machine.get_reg m1 r) (Machine.get_reg m2 r))
    [ 5; 6; 7; 8 ]

let test_run_binary_fills_icache () =
  let m = machine_with_pmp Config.boom in
  let prog = Program.of_instrs ~base:0x8000_0000L [ Instr.Nop; Instr.Nop; Instr.Halt ] in
  Alcotest.(check bool) "icache cold" false (Machine.l1i_contains m ~addr:0x8000_0000L);
  (match Machine.run_binary m ~base:0x8000_0000L (Riscv.Encode.assemble prog) with
  | Ok Machine.Halted -> ()
  | Ok s -> Alcotest.failf "stopped with %s" (Machine.stop_reason_to_string s)
  | Error msg -> Alcotest.failf "run_binary: %s" msg);
  Alcotest.(check bool) "code line resident in icache" true
    (Machine.l1i_contains m ~addr:0x8000_0000L);
  (* The fill was logged against the instruction cache. *)
  let filled =
    List.exists
      (fun (r : Log.record) ->
        match r.Log.event with
        | Log.Write { structure = Structure.L1i_data; _ } -> true
        | _ -> false)
      (Log.to_list (Machine.log m))
  in
  Alcotest.(check bool) "icache fill logged" true filled

let test_run_binary_exec_pmp_fault () =
  let m = machine_with_pmp Config.boom in
  (* The secret region carries no execute permission: fetching from it
     faults before any instruction runs. *)
  let prog = Program.of_instrs ~base:0x8800_0000L [ Instr.Li (5, 1L); Instr.Halt ] in
  (match Machine.run_binary m ~base:0x8800_0000L (Riscv.Encode.assemble prog) with
  | Ok Machine.Fetch_fault -> ()
  | Ok s -> Alcotest.failf "expected fetch fault, got %s" (Machine.stop_reason_to_string s)
  | Error msg -> Alcotest.failf "run_binary: %s" msg);
  Alcotest.(check word) "no instruction executed" 0L (Machine.get_reg m 5)

let test_run_binary_rejects_garbage () =
  let m = machine_with_pmp Config.boom in
  match Machine.run_binary m ~base:0x8000_0000L [| 0xFFFFFFFFl |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage image accepted"

let test_enclave_code_residue_in_icache () =
  (* "Enclave data/code": after an enclave executes from a binary image,
     its code lines remain in the I-cache across the context switch and
     the checker can trace them as residue when the code words are
     treated as secrets. *)
  let m = machine_with_pmp Config.boom in
  Machine.set_context m (Exec_context.Enclave 0);
  let pmp = Machine.pmp m in
  Pmp.set pmp 0
    (Pmp.napot_entry ~base:0x8800_0000L ~size:0x1_0000 ~perm:Pmp.full_access
       ~locked:false);
  let prog = Program.of_instrs ~base:0x8800_0000L [ Instr.Li (5, 7L); Instr.Halt ] in
  (match Machine.run_binary m ~base:0x8800_0000L (Riscv.Encode.assemble prog) with
  | Ok Machine.Halted -> ()
  | _ -> Alcotest.fail "enclave binary should run");
  Machine.switch_context m ~to_ctx:host_s;
  Alcotest.(check bool) "enclave code line survives the switch" true
    (Machine.l1i_contains m ~addr:0x8800_0000L)

(* {1 Properties} *)

let prop_cache_read_after_insert =
  QCheck.Test.make ~name:"cache read-after-insert returns inserted word" ~count:100
    QCheck.(pair (int_bound 1000) int64)
    (fun (line_index, v) ->
      let c = Cache.create ~sets:16 ~ways:2 in
      let addr = Int64.of_int (line_index * 64) in
      ignore (Cache.insert c ~addr (line_of_value v));
      match Cache.read_word c ~addr with Some w -> Int64.equal w v | None -> false)

let prop_stb_forward_matches_store =
  QCheck.Test.make ~name:"store buffer forwards the stored bytes" ~count:100
    QCheck.(pair int64 (int_bound 3))
    (fun (v, k) ->
      let size = 1 lsl k in
      let stb = Store_buffer.create ~entries:4 in
      Store_buffer.push stb (entry 0x1000L 8 v);
      match Store_buffer.forward stb ~addr:0x1000L ~size with
      | Store_buffer.Forwarded got -> Int64.equal got (Word.extract v ~pos:0 ~len:(size * 8))
      | Store_buffer.Partial_conflict | Store_buffer.No_match -> false)

let prop_btb_alias_iff_low_bits_equal =
  QCheck.Test.make ~name:"uBTB aliasing is equality of the low PC bits" ~count:200
    QCheck.(pair (map Int64.abs int64) (map Int64.abs int64))
    (fun (pc1, pc2) ->
      let btb = Btb.create ~entries:1024 ~tag_bits:16 ~ways:1 () in
      (* Covered bits: offset (1) + index (10) + tag (16) = bits [26:0]. *)
      let low pc = Int64.logand pc (Word.mask 27) in
      Btb.aliases btb ~pc1 ~pc2 = Int64.equal (low pc1) (low pc2))

let prop_machine_load_reads_memory =
  QCheck.Test.make ~name:"legal machine loads return memory contents" ~count:50
    QCheck.(pair (int_bound 4000) int64)
    (fun (off, v) ->
      let m = machine_with_pmp Config.boom in
      let addr = Int64.add 0x8001_0000L (Int64.of_int (off * 8)) in
      Memory.write (Machine.memory m) ~addr ~size:8 v;
      let r = Machine.load m ~vaddr:addr ~size:8 () in
      r.Machine.fault = None && Int64.equal r.Machine.value v)

(* {1 Occupancy index: model test}

   The references are the cache and BTB as they were before the
   occupancy index: a valid bit per entry, and walkers that sweep the
   whole geometry.  Their capture is a full copy.  [Cache] and [Btb] must
   be observably identical to them: every walker returns the same
   entries in the same set-then-way order. *)

module Cache_reference = struct
  type line = {
    mutable valid : bool;
    mutable tag : Word.t;
    mutable dirty : bool;
    data : Word.t array;
  }

  type t = { sets : int; ways : int; lines : line array array; next_victim : int array }

  let create ~sets ~ways =
    {
      sets;
      ways;
      lines =
        Array.init sets (fun _ ->
            Array.init ways (fun _ ->
                { valid = false; tag = 0L; dirty = false; data = Array.make 8 0L }));
      next_victim = Array.make sets 0;
    }

  let copy t =
    {
      t with
      lines = Array.map (Array.map (fun l -> { l with data = Array.copy l.data })) t.lines;
      next_victim = Array.copy t.next_victim;
    }

  let restore src ~into =
    Array.iteri
      (fun si set ->
        Array.iteri
          (fun wi l ->
            let d = into.lines.(si).(wi) in
            d.valid <- l.valid;
            d.tag <- l.tag;
            d.dirty <- l.dirty;
            Array.blit l.data 0 d.data 0 8)
          set)
      src.lines;
    Array.blit src.next_victim 0 into.next_victim 0 src.sets

  let base addr = Int64.logand addr (Int64.lognot 63L)

  let set_index t addr =
    Int64.to_int (Int64.rem (Int64.shift_right_logical (base addr) 6) (Int64.of_int t.sets))

  let find t addr =
    Array.fold_left
      (fun found l ->
        if Option.is_none found && l.valid && Int64.equal l.tag (base addr) then Some l
        else found)
      None t.lines.(set_index t addr)

  let write_word t ~addr v =
    match find t addr with
    | None -> false
    | Some l ->
      l.data.(Int64.to_int (Int64.shift_right_logical addr 3) land 7) <- v;
      l.dirty <- true;
      true

  let insert t ~addr data =
    match find t addr with
    | Some l ->
      Array.blit data 0 l.data 0 8;
      None
    | None ->
      let si = set_index t addr in
      let set = t.lines.(si) in
      let rec free w = if w >= t.ways then None else if set.(w).valid then free (w + 1) else Some w in
      let way =
        match free 0 with
        | Some w -> w
        | None ->
          let w = t.next_victim.(si) in
          t.next_victim.(si) <- (w + 1) mod t.ways;
          w
      in
      let v = set.(way) in
      let evicted = if v.valid then Some (v.tag, Array.copy v.data, v.dirty) else None in
      v.valid <- true;
      v.tag <- base addr;
      v.dirty <- false;
      Array.blit data 0 v.data 0 8;
      evicted

  let evict t ~addr =
    match find t addr with
    | None -> None
    | Some l ->
      l.valid <- false;
      Some (Array.copy l.data, l.dirty)

  let flush t =
    let dirty = ref [] in
    Array.iter
      (Array.iter (fun l ->
           if l.valid then begin
             if l.dirty then dirty := (l.tag, Array.copy l.data) :: !dirty;
             l.valid <- false
           end))
      t.lines;
    !dirty

  let valid t = List.concat_map (fun set -> List.filter (fun l -> l.valid) (Array.to_list set)) (Array.to_list t.lines)
  let valid_lines t = List.map (fun l -> (l.tag, Array.copy l.data)) (valid t)
  let occupancy t = List.length (valid t)
  let snapshot t log = List.iter (fun l -> Log.add_words log ~addr:l.tag l.data) (valid t)

  let corrupt_bit t ~select ~bit =
    match valid t with
    | [] -> None
    | lines ->
      let n = List.length lines in
      let l = List.nth lines (select mod n) in
      let word = select / n mod 8 in
      l.data.(word) <- Int64.logxor l.data.(word) (Int64.shift_left 1L (bit mod 64));
      l.dirty <- true;
      Some (Int64.add l.tag (Int64.of_int (word * 8)), l.data.(word))
end

module Btb_reference = struct
  type entry = { tag : Word.t; target : Word.t; taken : bool; owner : Exec_context.t }
  type slot = { mutable valid : bool; mutable entry : entry }

  type t = {
    ways : int;
    tag_bits : int;
    index_bits : int;
    tagged_by_owner : bool;
    slots : slot array array;
    next_way : int array;
  }

  let dummy = { tag = 0L; target = 0L; taken = false; owner = Exec_context.Monitor }

  let create ~tagged_by_owner ~entries ~tag_bits ~ways =
    let sets = entries / ways in
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    {
      ways;
      tag_bits;
      index_bits = log2 sets 0;
      tagged_by_owner;
      slots = Array.init sets (fun _ -> Array.init ways (fun _ -> { valid = false; entry = dummy }));
      next_way = Array.make sets 0;
    }

  let copy t =
    {
      t with
      slots = Array.map (Array.map (fun s -> { s with valid = s.valid })) t.slots;
      next_way = Array.copy t.next_way;
    }

  let restore src ~into =
    Array.iteri
      (fun si set ->
        Array.iteri
          (fun wi s ->
            into.slots.(si).(wi).valid <- s.valid;
            into.slots.(si).(wi).entry <- s.entry)
          set)
      src.slots;
    Array.blit src.next_way 0 into.next_way 0 (Array.length src.next_way)

  let index_of t ~pc = Int64.to_int (Word.extract pc ~pos:1 ~len:t.index_bits)
  let tag_of t ~pc = Word.extract pc ~pos:(1 + t.index_bits) ~len:t.tag_bits

  let lookup t ~pc =
    let tag = tag_of t ~pc in
    Array.fold_left
      (fun found s -> if s.valid && Int64.equal s.entry.tag tag then Some s.entry else found)
      None
      t.slots.(index_of t ~pc)

  let update t ~pc ~target ~taken ~owner =
    let si = index_of t ~pc in
    let set = t.slots.(si) in
    let tag = tag_of t ~pc in
    let exception Found of slot in
    let slot =
      try
        Array.iter (fun s -> if s.valid && Int64.equal s.entry.tag tag then raise (Found s)) set;
        Array.iter (fun s -> if not s.valid then raise (Found s)) set;
        let s = set.(t.next_way.(si)) in
        t.next_way.(si) <- (t.next_way.(si) + 1) mod t.ways;
        s
      with Found s -> s
    in
    slot.valid <- true;
    slot.entry <- { tag; target; taken; owner };
    si

  let flush t = Array.iter (Array.iter (fun s -> s.valid <- false)) t.slots

  let occupancy t =
    Array.fold_left
      (Array.fold_left (fun n s -> if s.valid then n + 1 else n))
      0 t.slots

  let install_note e =
    Printf.sprintf "tag=%s taken=%b owner=%s" (Word.to_hex e.tag) e.taken
      (Exec_context.to_string e.owner)

  let snapshot t log =
    Array.iteri
      (fun si set ->
        Array.iter
          (fun s ->
            if s.valid then
              Log.add_entry log ~slot:si
                ~note:(install_note s.entry ^ if t.tagged_by_owner then " id-tagged" else "")
                s.entry.target)
          set)
      t.slots
end

type cache_op =
  | C_insert of (int * int * int) * int64
  | C_write of (int * int * int) * int64
  | C_evict of (int * int * int)
  | C_flush
  | C_capture
  | C_restore
  | C_corrupt of int * int

(* XiangShan's L2 and L1D, BOOM's L1D, a direct-mapped and a tiny
   eight-way cache. *)
let cache_geometries = [| (512, 8); (128, 8); (64, 4); (16, 1); (2, 8) |]

(* A few sets, bitmap-word boundaries among them, and more tags than
   ways, so sets fill, evict and empty again. *)
let pick_set ~sets sel =
  let s =
    match sel mod 8 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 61
    | 3 -> 62
    | 4 -> 63
    | 5 -> sets - 1
    | 6 -> sets / 2
    | _ -> sel / 8
  in
  s mod sets

let cache_addr ~sets (sel, tag, word) =
  Int64.of_int ((((tag * sets) + pick_set ~sets sel) * 64) + (word * 8))

let gen_cache_case =
  let open QCheck.Gen in
  let at = triple (int_bound 63) (int_bound 11) (int_bound 7) in
  let op =
    frequency
      [
        (6, map2 (fun a v -> C_insert (a, v)) at ui64);
        (3, map2 (fun a v -> C_write (a, v)) at ui64);
        (3, map (fun a -> C_evict a) at);
        (1, return C_flush);
        (1, return C_capture);
        (1, return C_restore);
        (1, map2 (fun s b -> C_corrupt (s, b)) (int_bound 63) (int_bound 63));
      ]
  in
  pair (int_bound (Array.length cache_geometries - 1)) (list_size (int_range 1 60) op)

let print_cache_case (g, ops) =
  let at (s, t, w) = Printf.sprintf "(%d,%d,%d)" s t w in
  let sets, ways = cache_geometries.(g) in
  Printf.sprintf "%dx%d: %s" sets ways
    (String.concat "; "
       (List.map
          (function
            | C_insert (a, v) -> Printf.sprintf "insert %s %Lx" (at a) v
            | C_write (a, v) -> Printf.sprintf "write %s %Lx" (at a) v
            | C_evict a -> "evict " ^ at a
            | C_flush -> "flush"
            | C_capture -> "capture"
            | C_restore -> "restore"
            | C_corrupt (s, b) -> Printf.sprintf "corrupt %d %d" s b)
          ops))

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache walkers match the full-sweep reference" ~count:150
    (QCheck.make ~print:print_cache_case gen_cache_case)
    (fun (g, ops) ->
      let sets, ways = cache_geometries.(g) in
      let c = Cache.create ~sets ~ways and r = Cache_reference.create ~sets ~ways in
      let restored = Cache.create ~sets ~ways and saved = ref None in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | C_insert (a, v) ->
              let addr = cache_addr ~sets a in
              Cache.insert c ~addr (line_of_value v) = Cache_reference.insert r ~addr (line_of_value v)
            | C_write (a, v) ->
              let addr = cache_addr ~sets a in
              Cache.write_word c ~addr v = Cache_reference.write_word r ~addr v
            | C_evict a ->
              let addr = cache_addr ~sets a in
              Cache.evict c ~addr = Cache_reference.evict r ~addr
            | C_flush -> Cache.flush c = Cache_reference.flush r
            | C_capture ->
              saved := Some (Cache.capture c, Cache_reference.copy r);
              true
            | C_restore ->
              Option.iter
                (fun (cap, copy) ->
                  Cache.restore_capture cap ~into:c;
                  Cache_reference.restore copy ~into:r)
                !saved;
              true
            | C_corrupt (select, bit) ->
              Cache.corrupt_bit c ~select ~bit = Cache_reference.corrupt_bit r ~select ~bit
          in
          (* The capture round trip, into a cache that holds a previous
             step's lines. *)
          Cache.restore_capture (Cache.capture c) ~into:restored;
          let expected = snapshot_entries (Cache_reference.snapshot r) in
          same_result
          && snapshot_entries (Cache.snapshot c) = expected
          && snapshot_entries (Cache.snapshot restored) = expected
          && Cache.valid_lines c = Cache_reference.valid_lines r
          && Cache.occupancy c = Cache_reference.occupancy r
          && Cache.occupancy restored = Cache_reference.occupancy r)
        ops)

type btb_op =
  | B_update of (int * int) * int64 * bool * int
  | B_flush
  | B_capture
  | B_restore

(* XiangShan's FTB and uBTB, the uBTB under owner tagging, and small
   eight- and four-way BTBs: (entries, ways, tag bits, tagged). *)
let btb_geometries =
  [| (4096, 4, 16, false); (1024, 1, 16, false); (1024, 1, 16, true); (64, 8, 8, false);
     (16, 4, 4, true) |]

let btb_owners =
  [| host_s; Exec_context.Host Priv.User; Exec_context.Enclave 0; Exec_context.Enclave 1;
     Exec_context.Monitor |]

(* Tags 6..11 repeat tags 0..5 with a bit above the partial tag set, so
   they alias. *)
let btb_pc ~sets ~tag_bits (sel, tag) =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  let index_bits = log2 sets 0 in
  let tag = ((tag / 6) lsl tag_bits) lor (tag mod 6) in
  Int64.shift_left (Int64.of_int ((tag lsl index_bits) lor pick_set ~sets sel)) 1

let gen_btb_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 8,
          map4
            (fun a target taken owner -> B_update (a, target, taken, owner))
            (pair (int_bound 63) (int_bound 11))
            ui64 bool
            (int_bound (Array.length btb_owners - 1)) );
        (1, return B_flush);
        (1, return B_capture);
        (1, return B_restore);
      ]
  in
  pair (int_bound (Array.length btb_geometries - 1)) (list_size (int_range 1 60) op)

let print_btb_case (g, ops) =
  let entries, ways, tag_bits, tagged = btb_geometries.(g) in
  Printf.sprintf "%d/%d-way tag %d%s: %s" entries ways tag_bits
    (if tagged then " tagged" else "")
    (String.concat "; "
       (List.map
          (function
            | B_update ((s, t), target, taken, o) ->
              Printf.sprintf "update (%d,%d) %Lx %b %d" s t target taken o
            | B_flush -> "flush"
            | B_capture -> "capture"
            | B_restore -> "restore")
          ops))

let prop_btb_matches_reference =
  QCheck.Test.make ~name:"BTB walkers match the full-sweep reference" ~count:150
    (QCheck.make ~print:print_btb_case gen_btb_case)
    (fun (g, ops) ->
      let entries, ways, tag_bits, tagged_by_owner = btb_geometries.(g) in
      let make () = Btb.create ~tagged_by_owner ~entries ~tag_bits ~ways () in
      let b = make () and restored = make () in
      let r = Btb_reference.create ~tagged_by_owner ~entries ~tag_bits ~ways in
      let saved = ref None in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | B_update (a, target, taken, o) ->
              let pc = btb_pc ~sets:(entries / ways) ~tag_bits a and owner = btb_owners.(o) in
              let set, _ = Btb.update b ~pc ~target ~taken ~owner in
              set = Btb_reference.update r ~pc ~target ~taken ~owner
              &&
              (match (Btb.lookup b ~pc, Btb_reference.lookup r ~pc) with
              | Some e, Some e' ->
                Int64.equal e.Btb.tag e'.Btb_reference.tag
                && Int64.equal e.Btb.target e'.Btb_reference.target
                && e.Btb.taken = e'.Btb_reference.taken
                && Exec_context.equal e.Btb.owner e'.Btb_reference.owner
                && e.Btb.note = Btb_reference.install_note e'
              | _ -> false)
            | B_flush ->
              Btb.flush b;
              Btb_reference.flush r;
              true
            | B_capture ->
              saved := Some (Btb.capture b, Btb_reference.copy r);
              true
            | B_restore ->
              Option.iter
                (fun (cap, copy) ->
                  Btb.restore_capture cap ~into:b;
                  Btb_reference.restore copy ~into:r)
                !saved;
              true
          in
          Btb.restore_capture (Btb.capture b) ~into:restored;
          let expected = snapshot_entries (Btb_reference.snapshot r) in
          same_result
          && snapshot_entries (Btb.snapshot b) = expected
          && snapshot_entries (Btb.snapshot restored) = expected
          && Btb.occupancy b = Btb_reference.occupancy r
          && Btb.occupancy restored = Btb_reference.occupancy r)
        ops)

(* A residue snapshot costs what the structure holds: walking an empty
   XiangShan-geometry L2 or FTB, and logging the counters once the log
   has room, allocate nothing.  Nor does naming the context on a
   register write-back. *)
let test_snapshots_allocate_nothing () =
  let log = Log.create () in
  Log.begin_snapshot log ~cycle:0 ~ctx:host_s ~structure:Structure.L2_data;
  let l2 = Cache.create ~sets:512 ~ways:8 in
  let ftb = Btb.create ~entries:4096 ~tag_bits:16 ~ways:4 () in
  let csr = Csr.create () in
  let rf = Regfile.create ~regs:128 in
  Hpc.snapshot csr log;
  let measure f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let check what words = Alcotest.(check (float 0.)) (what ^ ": minor words") 0. words in
  check "empty L2 snapshot" (measure (fun () -> Cache.snapshot l2 log));
  check "empty FTB snapshot" (measure (fun () -> Btb.snapshot ftb log));
  check "HPC snapshot" (measure (fun () -> Hpc.snapshot csr log));
  check "register write-back"
    (measure (fun () ->
         ignore (Regfile.writeback rf ~value:42L ~ctx:(Exec_context.Enclave 1) ~transient:false)))

(* {1 Memset: line path against the per-word oracle}

   [Machine.memset_region] takes its line path whenever nothing can
   observe individual words; [Machine.memset_words] is the per-word loop
   it replaced.  Twin machines built identically run one each, then
   switch context so every structure lands in the log: the serialized
   logs, the cycle, every counter and the region's memory must agree.
   Some twins carry an advance hook that removes itself mid-region, the
   way a spent fault plan does: the dispatcher must go word by word
   while it is armed and resume the line path from the very next word. *)

type memset_case = {
  core : int;  (* index into [memset_configs] *)
  offset : int;  (* bytes past a line-aligned base *)
  bytes : int;
  value : int64;
  pending : (int * int * int64) list;
      (* Store-buffer entries before the memset: (byte offset from the
         region's line base, log2 size, value). *)
  warm : bool;  (* every other region line loaded into L1 and L2 *)
  dirty_sets : bool;  (* dirty lines in the region's L1 and L2 sets *)
  pmp : int;
      (* 0: the host view; 1: a locked read-only entry straddling the
         region; 2: a locked no-access entry inside the region under the
         stuck-at-grant fault; 3: the same entry without the fault.  The
         dispatcher falls back wherever the region meets the locked
         entry without the fault. *)
  hook : (int * Structure.t option) option;
      (* An advance hook that, on its k-th call, flips a bit in the
         structure if one is given, then removes itself. *)
}

let memset_configs = [| Config.boom; Config.boom_v2; Config.xiangshan |]
let memset_base = 0x8001_0000L
let memset_sizes = [ 8; 56; 72; 200; 65536 ]

let gen_memset_case =
  let open QCheck.Gen in
  int_bound (Array.length memset_configs - 1) >>= fun core ->
  let capacity = memset_configs.(core).Config.store_buffer_entries in
  let pending_store =
    (* Aligned to its size so that every store is exactly one entry;
       two in three land inside the region's first lines. *)
    map3
      (fun (inside, at) k v ->
        let size = 1 lsl k in
        ((if inside then at else 0x2_0000 + at) land lnot (size - 1), k, v))
      (pair (frequency [ (2, return true); (1, return false) ]) (int_bound 255))
      (int_bound 3) ui64
  in
  let hook =
    frequency
      [
        (1, return None);
        ( 2,
          map2
            (fun k flip -> Some (k, flip))
            (int_bound 300)
            (oneofl [ None; Some Structure.Store_buffer; Some Structure.L1d_data ]) );
      ]
  in
  map
    (fun (((offset, bytes, value), pending), ((warm, dirty_sets, pmp), hook)) ->
      { core; offset; bytes; value; pending; warm; dirty_sets; pmp; hook })
    (pair
       (pair
          (triple
             (frequency [ (3, map (fun w -> 8 * w) (int_bound 7)); (1, int_bound 63) ])
             (frequency [ (4, oneofl memset_sizes); (1, int_range 1 300) ])
             (oneofl [ 0L; 0x5EC2E7L; -1L ]))
          (list_size (int_bound capacity) pending_store))
       (pair
          (triple bool bool (frequency [ (6, return 0); (1, return 1); (1, return 2); (1, return 3) ]))
          hook))

let print_memset_case c =
  Printf.sprintf "%s +%d %dB value %Lx pending [%s]%s%s pmp %d%s"
    memset_configs.(c.core).Config.name c.offset c.bytes c.value
    (String.concat "; "
       (List.map (fun (at, k, v) -> Printf.sprintf "%x/%d %Lx" at (1 lsl k) v) c.pending))
    (if c.warm then " warm" else "")
    (if c.dirty_sets then " dirty-sets" else "")
    c.pmp
    (match c.hook with
    | None -> ""
    | Some (k, flip) ->
      Printf.sprintf " hook off at call %d%s" k
        (match flip with None -> "" | Some s -> " after flipping " ^ Structure.to_string s))

let memset_twin c =
  let config = memset_configs.(c.core) in
  let m = machine_with_pmp config in
  let mem = Machine.memory m in
  let at off = Int64.add memset_base (Int64.of_int off) in
  let region_lines = (c.offset + c.bytes + 63) / 64 in
  (* Distinct data in the region, for refills to drag through the LFB. *)
  for l = 0 to region_lines - 1 do
    Memory.write_line mem ~addr:(at (l * 64))
      (Array.init 8 (fun w -> Int64.of_int (0xE000_0000 + (l * 8) + w)))
  done;
  if c.warm then
    for l = 0 to min 32 region_lines - 1 do
      if l mod 2 = 0 then ignore (Machine.load m ~vaddr:(at (l * 64)) ~size:8 ())
    done;
  if c.dirty_sets then begin
    (* Dirty lines sharing the first region lines' sets, one more than
       the ways at each level, so the memset's refills evict them. *)
    let stride level_sets = level_sets * 64 in
    List.iter
      (fun (sets, ways) ->
        for l = 0 to 1 do
          for j = 1 to ways + 1 do
            let addr = at ((l * 64) + (j * stride sets)) in
            ignore (Machine.store m ~vaddr:addr ~size:8 ~value:(Int64.of_int j) ())
          done
        done)
      [ (config.Config.l1_sets, config.Config.l1_ways); (config.Config.l2_sets, config.Config.l2_ways) ]
  end;
  Machine.fence m;
  List.iter
    (fun (off, k, v) -> ignore (Machine.store m ~vaddr:(at off) ~size:(1 lsl k) ~value:v ()))
    c.pending;
  let pmp = Machine.pmp m in
  (match c.pmp with
  | 1 ->
    Pmp.set pmp 1
      (Pmp.napot_entry ~base:(at 128) ~size:128 ~perm:Pmp.read_only ~locked:true)
  | 2 | 3 ->
    Pmp.set pmp 1 (Pmp.napot_entry ~base:(at 64) ~size:64 ~perm:Pmp.no_access ~locked:true);
    if c.pmp = 2 then Machine.set_pmp_stuck_grant m true
  | _ -> ());
  Machine.set_context m Exec_context.Monitor;
  Option.iter
    (fun (k, flip) ->
      let calls = ref 0 in
      Machine.set_advance_hook m
        (Some
           (fun m ->
             if !calls = k then begin
               Option.iter
                 (fun structure -> ignore (Machine.flip_bit m ~structure ~select:k ~bit:(k mod 64)))
                 flip;
               Machine.set_advance_hook m None
             end;
             incr calls)))
    c.hook;
  m

let prop_memset_line_path_matches_oracle =
  QCheck.Test.make ~name:"memset line path matches the per-word oracle" ~count:120
    (QCheck.make ~print:print_memset_case gen_memset_case)
    (fun c ->
      let run memset =
        let m = memset_twin c in
        memset m ~origin:Log.Memset_destroy ~addr:(Int64.add memset_base (Int64.of_int c.offset))
          ~size:(Int64.of_int c.bytes) ~value:c.value;
        Machine.switch_context m ~to_ctx:host_s;
        m
      in
      let line = run Machine.memset_region and oracle = run Machine.memset_words in
      let counters m =
        List.map
          (fun n ->
            Csr.raw_read (Machine.csr m)
              (match n with 0 -> Csr.Mcycle | 2 -> Csr.Minstret | n -> Csr.Mhpmcounter n))
          Csr.modelled_counters
      in
      let memory m =
        List.init ((c.offset + c.bytes + 63) / 64) (fun l ->
            Memory.read_line (Machine.memory m) ~addr:(Int64.add memset_base (Int64.of_int (l * 64))))
      in
      String.equal
        (Simlog.Serialize.to_string (Machine.log line))
        (Simlog.Serialize.to_string (Machine.log oracle))
      && Machine.cycle line = Machine.cycle oracle
      && counters line = counters oracle
      && memory line = memory oracle
      && Memory.words_written (Machine.memory line) = Memory.words_written (Machine.memory oracle))

(* The dispatcher must really take the line path: on a 64 KiB memset it
   allocates under half of what the per-word oracle does. *)
let test_memset_takes_line_path () =
  let allocated memset =
    let m = machine_with_pmp Config.boom in
    Machine.set_context m Exec_context.Monitor;
    let before = Gc.minor_words () in
    memset m ~origin:Log.Memset_destroy ~addr:memset_base ~size:65536L ~value:0L;
    Gc.minor_words () -. before
  in
  let line = allocated Machine.memset_region and words = allocated Machine.memset_words in
  Alcotest.(check bool)
    (Printf.sprintf "line path %.0f minor words, per-word oracle %.0f" line words)
    true
    (line < words /. 2.)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cache_read_after_insert;
      prop_stb_forward_matches_store;
      prop_btb_alias_iff_low_bits_equal;
      prop_machine_load_reads_memory;
      prop_cache_matches_reference;
      prop_btb_matches_reference;
      prop_memset_line_path_matches_oracle;
    ]

let () =
  Alcotest.run "uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "insert/lookup" `Quick test_cache_insert_lookup;
          Alcotest.test_case "write/dirty/evict" `Quick test_cache_write_dirty_evict;
          Alcotest.test_case "clean eviction" `Quick test_cache_clean_eviction;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "explicit eviction" `Quick test_cache_evict_explicit;
          Alcotest.test_case "snapshot" `Quick test_cache_snapshot;
          Alcotest.test_case "snapshots and write-backs allocate nothing" `Quick
            test_snapshots_allocate_nothing;
          Alcotest.test_case "captures share the victim pointers" `Quick
            test_cache_capture_shares_victims;
        ] );
      ( "lfb",
        [
          Alcotest.test_case "stale retention (BOOM)" `Quick test_lfb_stale_retention;
          Alcotest.test_case "zeroing (XiangShan)" `Quick test_lfb_zeroing;
          Alcotest.test_case "slot reuse" `Quick test_lfb_slot_reuse;
          Alcotest.test_case "flush" `Quick test_lfb_flush;
        ] );
      ( "store_buffer",
        [
          Alcotest.test_case "forwarding" `Quick test_stb_forwarding;
          Alcotest.test_case "youngest wins" `Quick test_stb_youngest_wins;
          Alcotest.test_case "drain order" `Quick test_stb_drain_order;
          Alcotest.test_case "capacity" `Quick test_stb_capacity;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "lookup/insert/flush" `Quick test_tlb;
          Alcotest.test_case "eviction" `Quick test_tlb_eviction;
        ] );
      ( "btb",
        [
          Alcotest.test_case "partial tags alias" `Quick test_btb_partial_tags_alias;
          Alcotest.test_case "update/lookup" `Quick test_btb_update_lookup;
          Alcotest.test_case "residue and flush" `Quick test_btb_residue_and_flush;
          Alcotest.test_case "set associativity" `Quick test_btb_set_associative;
          Alcotest.test_case "owner tagging (extension)" `Quick test_btb_owner_tagging;
          Alcotest.test_case "captures share the way pointers" `Quick
            test_btb_capture_shares_ways;
        ] );
      ( "hpc",
        [
          Alcotest.test_case "bump and read" `Quick test_hpc_bump_read;
          Alcotest.test_case "distinct indices" `Quick test_hpc_distinct_indices;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "writeback and wrap" `Quick test_regfile;
          Alcotest.test_case "restored copies are independent" `Quick
            test_regfile_restore_independent;
        ] );
      ( "lsu",
        [
          Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
          Alcotest.test_case "store-to-load forward" `Quick test_store_to_load_forward;
          Alcotest.test_case "miss/hit latency" `Quick test_load_miss_then_hit_latency;
          Alcotest.test_case "misaligned load" `Quick test_misaligned_load;
          Alcotest.test_case "faulting L1 hit forwards (D4)" `Quick
            test_faulting_load_l1_hit_forwards;
          Alcotest.test_case "faulting miss fills LFB on BOOM" `Quick
            test_faulting_miss_boom_fills_lfb;
          Alcotest.test_case "faulting miss fake hit on XS" `Quick
            test_faulting_miss_xs_fake_hit;
          Alcotest.test_case "store-buffer forward on fault (D8)" `Quick
            test_faulting_load_stb_forward_xs_only;
          Alcotest.test_case "clear-illegal-data-returns" `Quick
            test_clear_illegal_data_returns;
          Alcotest.test_case "faulting store has no effect" `Quick
            test_store_fault_no_side_effect;
          Alcotest.test_case "prefetcher skips permission checks (D1)" `Quick
            test_prefetcher_no_permission_check;
          Alcotest.test_case "no prefetcher on XS" `Quick test_no_prefetcher_on_xs;
        ] );
      ( "translation",
        [
          Alcotest.test_case "translated load + TLB" `Quick test_translated_load;
          Alcotest.test_case "unmapped page faults" `Quick test_unmapped_vaddr_page_faults;
          Alcotest.test_case "hijacked satp (D2)" `Quick test_hijacked_satp_boom_vs_xs;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "alu" `Quick test_interpreter_alu;
          Alcotest.test_case "x0 hardwired" `Quick test_interpreter_x0_hardwired;
          Alcotest.test_case "branch loop" `Quick test_interpreter_branch_loop;
          Alcotest.test_case "faulting load skipped" `Quick
            test_interpreter_faulting_load_skipped;
          Alcotest.test_case "csr access" `Quick test_interpreter_csr_access;
          Alcotest.test_case "lazy vs early CSR check (M1)" `Quick
            test_lazy_vs_early_csr_check;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "out of program" `Quick test_out_of_program;
        ] );
      ( "wb_buffer",
        [ Alcotest.test_case "victim ring" `Quick test_wb_buffer_ring ] );
      ( "binary",
        [
          Alcotest.test_case "binary matches Program semantics" `Quick
            test_run_binary_matches_program;
          Alcotest.test_case "fills the icache" `Quick test_run_binary_fills_icache;
          Alcotest.test_case "PMP execute fault" `Quick test_run_binary_exec_pmp_fault;
          Alcotest.test_case "rejects garbage" `Quick test_run_binary_rejects_garbage;
          Alcotest.test_case "enclave code residue" `Quick
            test_enclave_code_residue_in_icache;
        ] );
      ( "context",
        [
          Alcotest.test_case "switch snapshots" `Quick test_switch_context_snapshots;
          Alcotest.test_case "mitigation flushes" `Quick test_mitigation_flushes_on_switch;
          Alcotest.test_case "HPC banking under tagging" `Quick test_hpc_banking_on_switch;
          Alcotest.test_case "BOOM v2.3 configuration" `Quick test_boom_v2_config;
          Alcotest.test_case "l2 eviction" `Quick test_evict_line_l2;
          Alcotest.test_case "memset region" `Quick test_memset_region;
          Alcotest.test_case "memset takes the line path" `Quick test_memset_takes_line_path;
        ] );
      ("properties", properties);
    ]
