(* Tests for execution contexts and the simulation log. *)

module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context

let test_context_equal () =
  Alcotest.(check bool) "host S = host S" true
    (Exec_context.equal (Exec_context.Host Riscv.Priv.Supervisor)
       (Exec_context.Host Riscv.Priv.Supervisor));
  Alcotest.(check bool) "host S <> host U" false
    (Exec_context.equal (Exec_context.Host Riscv.Priv.Supervisor)
       (Exec_context.Host Riscv.Priv.User));
  Alcotest.(check bool) "enclave ids" false
    (Exec_context.equal (Exec_context.Enclave 0) (Exec_context.Enclave 1))

let test_structure_metadata () =
  Alcotest.(check int) "15 structures" 15 (List.length Structure.all);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Structure.to_string s ^ " has netlist hints")
        true
        (Structure.netlist_hint s <> []))
    Structure.all

let host = Exec_context.Host Riscv.Priv.Supervisor

let test_log_record_and_search () =
  let log = Log.create () in
  Log.record log ~cycle:10 ~ctx:host
    (Log.Write
       {
         structure = Structure.Lfb;
         entries = [ Log.entry ~slot:0 ~addr:0x88000000L 0xFACEL ];
         origin = Log.Prefetch;
       });
  Log.record log ~cycle:20 ~ctx:(Exec_context.Enclave 0)
    (Log.Snapshot
       { structure = Structure.L1d_data; entries = [ Log.entry 0xBEEFL ] });
  Alcotest.(check int) "length" 2 (Log.length log);
  Alcotest.(check int) "occurrences of FACE" 1 (List.length (Log.occurrences log 0xFACEL));
  Alcotest.(check int) "occurrences of BEEF" 1 (List.length (Log.occurrences log 0xBEEFL));
  Alcotest.(check int) "no occurrences" 0 (List.length (Log.occurrences log 0x1234L))

let test_log_order () =
  let log = Log.create () in
  List.iter
    (fun c -> Log.record log ~cycle:c ~ctx:host (Log.Commit { pc = Int64.of_int c; instr = "nop" }))
    [ 1; 2; 3 ];
  let cycles = List.map (fun r -> r.Log.cycle) (Log.to_list log) in
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] cycles

let test_last_commit_before () =
  let log = Log.create () in
  Log.record log ~cycle:5 ~ctx:host (Log.Commit { pc = 0x100L; instr = "a" });
  Log.record log ~cycle:15 ~ctx:host (Log.Commit { pc = 0x104L; instr = "b" });
  (match Log.last_commit_before log ~cycle:10 with
  | Some pc -> Alcotest.(check int64) "first commit" 0x100L pc
  | None -> Alcotest.fail "expected a commit");
  (match Log.last_commit_before log ~cycle:20 with
  | Some pc -> Alcotest.(check int64) "second commit" 0x104L pc
  | None -> Alcotest.fail "expected a commit");
  Alcotest.(check bool) "none before first" true
    (Log.last_commit_before log ~cycle:2 = None)

let test_contains_value_scopes () =
  (* Mode switches, commits and exceptions never match data searches,
     even for the value their pc field holds. *)
  let only event =
    let log = Log.create () in
    Log.record log ~cycle:1 ~ctx:host event;
    Log.occurrences log 0L
  in
  Alcotest.(check int) "mode switch" 0
    (List.length
       (only (Log.Mode_switch { from_ctx = host; to_ctx = Exec_context.Monitor })));
  Alcotest.(check int) "commit" 0
    (List.length (only (Log.Commit { pc = 0L; instr = "nop" })));
  Alcotest.(check int) "exception" 0
    (List.length (only (Log.Exception_raised { cause = "x"; pc = 0L })))

let test_origin_strings () =
  let origins =
    [
      Log.Explicit_load; Log.Explicit_store; Log.Prefetch; Log.Ptw_walk;
      Log.Store_drain; Log.Memset_destroy; Log.Csr_read; Log.Context_save;
      Log.Refill; Log.Branch_exec; Log.Writeback;
    ]
  in
  let strings = List.map Log.origin_to_string origins in
  Alcotest.(check int) "all distinct" (List.length origins)
    (List.length (List.sort_uniq compare strings))

(* {1 Serialisation} *)

module Serialize = Simlog.Serialize

let r cycle ctx event = { Log.cycle; ctx; event }

let base_records =
  [
    r 1 host
      (Log.Write
         {
           structure = Structure.Lfb;
           entries =
             [
               Log.entry ~slot:3 ~addr:0x8800_0000L ~note:"a note, with %weird~chars" 0xFACEL;
               Log.entry 0xBEEFL;
               Log.entry ~slot:max_int ~addr:(-1L) ~note:"tab\there\nnewline" Int64.min_int;
             ];
           origin = Log.Prefetch;
         });
    r 2 (Exec_context.Enclave 1)
      (Log.Snapshot { structure = Structure.Ubtb; entries = [ Log.entry ~note:"owner=enclave-1" 1L ] });
    r 3 Exec_context.Monitor (Log.Mode_switch { from_ctx = Exec_context.Monitor; to_ctx = host });
    r 4 host (Log.Commit { pc = 0x8000_0000L; instr = "ld x5, 0x0(x6)" });
    r 5 host (Log.Exception_raised { cause = "load-access-fault"; pc = 0x8000_0004L });
  ]

(* Records the encoding must also carry exactly: negative and large
   enclave ids ([enclave--5] is a valid rendering), large slots and
   cycles, empty and escaped notes, structure-less faults. *)
let sample_records =
  base_records
  @ [
    r 6 (Exec_context.Enclave (-5))
      (Log.Write
         {
           structure = Structure.Reg_file;
           entries = [ Log.entry ~slot:(1 lsl 40) ~note:"" 7L; Log.entry ~slot:(-3) 8L ];
           origin = Log.Fault_inject;
         });
    r (1 lsl 50) (Exec_context.Enclave max_int)
      (Log.Mode_switch { from_ctx = Exec_context.Enclave (-5); to_ctx = Exec_context.Enclave min_int });
    r max_int (Exec_context.Host Riscv.Priv.User)
      (Log.Fault_injected { structure = None; detail = "PMP checks stuck at grant" });
    r 7 (Exec_context.Host Riscv.Priv.Machine)
      (Log.Fault_injected { structure = Some Structure.L1d_data; detail = "" });
    r 8 host (Log.Snapshot { structure = Structure.Prefetcher; entries = [] });
    r 9 host (Log.Commit { pc = -1L; instr = "" });
  ]

let sample_log ?(records = base_records) () =
  let log = Log.create () in
  List.iter (fun r -> Log.record log ~cycle:r.Log.cycle ~ctx:r.Log.ctx r.Log.event) records;
  log

let test_serialize_roundtrip () =
  let log = sample_log ~records:sample_records () in
  Alcotest.(check bool) "the encoding carries every record" true
    (Log.to_list log = sample_records);
  let text = Serialize.to_string log in
  match Serialize.parse_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok parsed ->
    Alcotest.(check int) "record count" (Log.length log) (Log.length parsed);
    Alcotest.(check string) "round-trips byte for byte" text (Serialize.to_string parsed);
    Alcotest.(check bool) "records round-trip" true (Log.to_list parsed = sample_records);
    (* Semantic checks survive the trip. *)
    Alcotest.(check int) "occurrences preserved"
      (List.length (Log.occurrences log 0xFACEL))
      (List.length (Log.occurrences parsed 0xFACEL));
    (match Log.last_commit_before parsed ~cycle:5 with
    | Some pc -> Alcotest.(check int64) "commit pc" 0x8000_0000L pc
    | None -> Alcotest.fail "commit lost")

(* A mark is the log's exact contents: restoring it discards everything
   recorded since, whatever was marked or restored in between. *)
let test_marks_are_exact () =
  let log = Log.create () in
  let write v =
    Log.begin_write log ~cycle:1 ~ctx:host ~structure:Structure.Reg_file ~origin:Log.Writeback;
    Log.add_entry log ~slot:0 ~note:(Printf.sprintf "v%Ld" v) v
  in
  write 1L;
  let m1 = Log.mark log in
  let at_m1 = Log.to_list log in
  write 2L;
  let m2 = Log.mark log in
  let at_m2 = Log.to_list log in
  write 3L;
  Log.reset_to log m1;
  Alcotest.(check bool) "reset to the first mark" true (Log.to_list log = at_m1);
  write 4L;
  Log.reset_to log m2;
  Alcotest.(check bool) "reset to the second mark" true (Log.to_list log = at_m2);
  Alcotest.(check int) "length follows" 2 (Log.length log);
  Alcotest.check_raises "entries need an open record"
    (Invalid_argument "Log.add_entry: no open Write or Snapshot record") (fun () ->
      Log.add_entry log ~slot:0 ~note:"" 5L)

(* Marks chain the log's records as segments: marking again shares the
   earlier segments, and resetting to an older mark, then appending and
   marking, branches off them.  Every reader must see one record
   sequence whatever the segments: [to_list], the serialized text,
   cursor indices and [iter_since]. *)
let test_marks_branch () =
  let log = Log.create () in
  let record i =
    {
      Log.cycle = i;
      ctx = host;
      event =
        Log.Write
          {
            structure = Structure.Reg_file;
            entries = [ Log.entry ~slot:i ~note:(Printf.sprintf "v%d" (i mod 3)) (Int64.of_int i) ];
            origin = Log.Writeback;
          };
    }
  in
  let add i =
    let r = record i in
    Log.record log ~cycle:r.Log.cycle ~ctx:r.Log.ctx r.Log.event
  in
  let expect what ids =
    let records = List.map record ids in
    Alcotest.(check bool) (what ^ ": records") true (Log.to_list log = records);
    let fresh = Log.create () in
    List.iter (fun r -> Log.record fresh ~cycle:r.Log.cycle ~ctx:r.Log.ctx r.Log.event) records;
    Alcotest.(check string) (what ^ ": serialized") (Simlog.Serialize.to_string fresh)
      (Simlog.Serialize.to_string log);
    let indices = ref [] in
    Log.iter log (fun c -> indices := Log.Cursor.index c :: !indices);
    Alcotest.(check (list int)) (what ^ ": cursor indices")
      (List.init (List.length ids) Fun.id) (List.rev !indices)
  in
  (* [since m ~from ids]: the records after [m] are [ids], at indices
     from [from] on. *)
  let since what m ~from ids =
    let seen = ref [] in
    Log.iter_since log m (fun c -> seen := (Log.Cursor.index c, Log.Cursor.record c) :: !seen);
    Alcotest.(check bool) (what ^ ": records since the mark") true
      (List.rev !seen = List.mapi (fun k i -> (from + k, record i)) ids)
  in
  add 1;
  add 2;
  let m1 = Log.mark log in
  add 3;
  let m2 = Log.mark log in
  add 4;
  expect "marked twice" [ 1; 2; 3; 4 ];
  since "marked twice" m1 ~from:2 [ 3; 4 ];
  Log.reset_to log m1;
  expect "reset to the first mark" [ 1; 2 ];
  add 5;
  add 6;
  let m3 = Log.mark log in
  add 7;
  expect "a branch off the first mark" [ 1; 2; 5; 6; 7 ];
  since "the branch, from the first mark" m1 ~from:2 [ 5; 6; 7 ];
  since "the branch, from its own mark" m3 ~from:4 [ 7 ];
  Log.reset_to log m2;
  expect "reset to the second mark" [ 1; 2; 3 ];
  since "the second mark, from the first" m1 ~from:2 [ 3 ];
  Log.reset_to log m3;
  expect "reset to the branch" [ 1; 2; 5; 6 ];
  since "the branch restored" m1 ~from:2 [ 5; 6 ];
  Alcotest.(check int) "length follows" 4 (Log.length log)

let test_cursor_filters () =
  let log = sample_log ~records:sample_records () in
  let values = Log.Values.of_list [ 0xBEEFL; Int64.min_int; 42L ] in
  let hits = ref [] in
  Log.iter log (fun c ->
      let i = ref (Log.Cursor.next_match c values 0) in
      while !i >= 0 do
        hits := (Log.Cursor.index c, !i, Log.Cursor.data c !i) :: !hits;
        i := Log.Cursor.next_match c values (!i + 1)
      done);
  Alcotest.(check (list (triple int int int64)))
    "matching entries, in order"
    [ (0, 1, 0xBEEFL); (0, 2, Int64.min_int) ]
    (List.rev !hits);
  Log.iter log (fun c ->
      if Log.Cursor.index c = 1 then begin
        Alcotest.(check int) "find_data" 0 (Log.Cursor.find_data c 1L);
        Alcotest.(check int) "find_data misses" (-1) (Log.Cursor.find_data c 2L);
        Alcotest.(check bool) "note_contains" true
          (Log.Cursor.note_contains c 0 ~needle:"owner=enclave");
        Alcotest.(check bool) "note_contains misses" false
          (Log.Cursor.note_contains c 0 ~needle:"id-tagged")
      end)

let test_codes () =
  List.iteri
    (fun i s -> Alcotest.(check int) (Structure.to_string s) i (Structure.to_code s))
    Structure.all;
  List.iter
    (fun s -> Alcotest.(check bool) "structure code inverts" true (Structure.of_code (Structure.to_code s) = s))
    Structure.all;
  List.iteri
    (fun i o -> Alcotest.(check int) (Log.origin_to_string o) i (Log.origin_to_code o))
    Log.all_origins;
  List.iter
    (fun o -> Alcotest.(check bool) "origin code inverts" true (Log.origin_of_code (Log.origin_to_code o) = o))
    Log.all_origins

let test_serialize_file_roundtrip () =
  let log = sample_log () in
  let path = Filename.temp_file "teesec" ".simlog" in
  Serialize.save ~path log;
  (match Serialize.load ~path with
  | Ok parsed -> Alcotest.(check int) "file round-trip" (Log.length log) (Log.length parsed)
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove path

let test_serialize_rejects_garbage () =
  (match Serialize.parse_string "W\tnot-a-number\thost-S" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Serialize.parse_string "X\t1\thost-S\tfoo" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown record kind accepted"

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("escape " ^ s) s (Serialize.unescape (Serialize.escape s)))
    [ ""; "plain"; "with space"; "tab\there"; "100%"; "a,b,c"; "~tilde~"; "csrr hpmcounter4" ]

let test_parsers () =
  List.iter
    (fun ctx ->
      match Exec_context.of_string (Exec_context.to_string ctx) with
      | Some c -> Alcotest.(check bool) "ctx roundtrip" true (Exec_context.equal c ctx)
      | None -> Alcotest.fail "ctx parse failed")
    [ host; Exec_context.Host Riscv.Priv.User; Exec_context.Enclave 0;
      Exec_context.Enclave 7; Exec_context.Monitor ];
  Alcotest.(check bool) "bad ctx" true (Exec_context.of_string "hostess" = None);
  List.iter
    (fun s ->
      match Structure.of_string (Structure.to_string s) with
      | Some s' -> Alcotest.(check bool) "structure roundtrip" true (Structure.equal s s')
      | None -> Alcotest.fail "structure parse failed")
    Structure.all;
  Alcotest.(check bool) "bad structure" true (Structure.of_string "l3-cache" = None);
  Alcotest.(check bool) "origin roundtrip" true
    (Log.origin_of_string (Log.origin_to_string Log.Memset_destroy) = Some Log.Memset_destroy);
  Alcotest.(check bool) "bad origin" true (Log.origin_of_string "teleport" = None)

module Stats = Simlog.Stats

let test_stats () =
  let stats = Stats.of_log (sample_log ()) in
  Alcotest.(check int) "records" 5 stats.Stats.records;
  Alcotest.(check int) "writes" 1 stats.Stats.writes;
  Alcotest.(check int) "snapshots" 1 stats.Stats.snapshots;
  Alcotest.(check int) "commits" 1 stats.Stats.commits;
  Alcotest.(check int) "exceptions" 1 stats.Stats.exceptions;
  Alcotest.(check int) "mode switches" 1 stats.Stats.mode_switches;
  Alcotest.(check int) "first cycle" 1 stats.Stats.first_cycle;
  Alcotest.(check int) "last cycle" 5 stats.Stats.last_cycle;
  Alcotest.(check bool) "lfb counted" true
    (List.mem_assoc Structure.Lfb stats.Stats.by_structure);
  Alcotest.(check bool) "prefetch provenance counted" true
    (List.mem_assoc "prefetch" stats.Stats.by_origin)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialisation round-trips arbitrary writes" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 10)
        (pair small_nat (pair int64 (string_gen_of_size (Gen.int_range 0 12) Gen.printable))))
    (fun records ->
      let log = Log.create () in
      List.iteri
        (fun i (slot, (data, note)) ->
          Log.record log ~cycle:i ~ctx:host
            (Log.Write
               {
                 structure = Structure.Reg_file;
                 entries = [ Log.entry ~slot ~note data ];
                 origin = Log.Writeback;
               }))
        records;
      match Serialize.parse_string (Serialize.to_string log) with
      | Ok parsed -> Serialize.to_string parsed = Serialize.to_string log
      | Error _ -> false)

let prop_occurrences_complete =
  QCheck.Test.make ~name:"occurrences finds every inserted value" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) int64)
    (fun values ->
      let log = Log.create () in
      List.iteri
        (fun i v ->
          Log.record log ~cycle:i ~ctx:host
            (Log.Write
               { structure = Structure.Reg_file; entries = [ Log.entry v ]; origin = Log.Writeback }))
        values;
      List.for_all (fun v -> Log.occurrences log v <> []) values)

let () =
  Alcotest.run "simlog"
    [
      ( "exec_context",
        [
          Alcotest.test_case "equality" `Quick test_context_equal;
        ] );
      ("structure", [ Alcotest.test_case "metadata" `Quick test_structure_metadata ]);
      ( "log",
        [
          Alcotest.test_case "record and search" `Quick test_log_record_and_search;
          Alcotest.test_case "chronological order" `Quick test_log_order;
          Alcotest.test_case "last commit before" `Quick test_last_commit_before;
          Alcotest.test_case "non-data events don't match" `Quick test_contains_value_scopes;
          Alcotest.test_case "origin strings distinct" `Quick test_origin_strings;
          Alcotest.test_case "marks are exact" `Quick test_marks_are_exact;
          Alcotest.test_case "cursor filters" `Quick test_cursor_filters;
          Alcotest.test_case "enum codes" `Quick test_codes;
          Alcotest.test_case "marks branch and share segments" `Quick test_marks_branch;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "round-trip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_serialize_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "note escaping" `Quick test_escape_roundtrip;
          Alcotest.test_case "string parsers" `Quick test_parsers;
        ] );
      ("stats", [ Alcotest.test_case "summary" `Quick test_stats ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_occurrences_complete;
          QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
        ] );
    ]
