(* lib/wave: the event codec, stream framing, query engine and VCD
   exporter — plus the cross-layer invariants the taps are sold on:
   verdicts and provenance byte-identical with taps on or off, across
   job counts, and across the snapshot engine (whose restore path must
   splice the log's wave records rather than replay them, and which
   alone decides whether a run is tapped). *)

module Event = Wave.Event
module Query = Wave.Query
module Vcd = Wave.Vcd
module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context
module Config = Uarch.Config
module Provenance = Teesec.Provenance

(* {1 Event codec} *)

let all_kinds =
  [
    Event.Fill; Event.Evict; Event.Flush; Event.Hit; Event.Residue;
    Event.Pmp_check; Event.Ctx_switch;
  ]

let encode_events evs =
  let buf = Buffer.create 256 in
  List.iter
    (fun (e : Event.t) ->
      Event.encode buf ~kind:e.Event.kind ~cycle:e.Event.cycle
        ~structure_id:
          (match e.Event.structure with
          | Some s -> Event.structure_to_int s
          | None -> Event.no_structure)
        ~slot:e.Event.slot ~domain:e.Event.domain ~value:e.Event.value)
    evs;
  Buffer.contents buf

let event_gen =
  QCheck.Gen.(
    let* kind = oneofl all_kinds in
    (* max_int is the longest varint the encoder writes: nine bytes. *)
    let* cycle = frequency [ (9, int_bound 2_000_000); (1, return max_int) ] in
    let* structure =
      oneof [ return None; map Option.some (oneofl Structure.all) ]
    in
    let* slot = int_bound 512 in
    let* domain = int_bound 40 in
    let* value = int_bound 1_000_000 in
    return { Event.kind; cycle; structure; slot; domain; value })

let arbitrary_events =
  QCheck.make
    ~print:(fun evs ->
      String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
    QCheck.Gen.(list_size (int_bound 64) event_gen)

let codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"event codec round-trips" arbitrary_events
    (fun evs ->
      match Event.decode (encode_events evs) with
      | Ok evs' -> evs = evs'
      | Error _ -> false)

let test_codec_rejects_corrupt () =
  let good = encode_events [ { Event.kind = Event.Fill; cycle = 7;
                               structure = Some (List.hd Structure.all);
                               slot = 3; domain = 1; value = 5 } ] in
  (* Truncations at every byte boundary fail cleanly. *)
  for n = 1 to String.length good - 1 do
    match Event.decode (String.sub good 0 n) with
    | Error _ -> ()
    | Ok [] -> Alcotest.fail "truncated stream decoded as empty"
    | Ok _ -> Alcotest.failf "truncation at byte %d decoded" n
  done;
  (* A bad kind byte fails. *)
  (match Event.decode "\xfe" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind byte accepted");
  (* A bad structure id fails. *)
  let buf = Buffer.create 8 in
  Buffer.add_char buf '\x00' (* Fill *);
  Buffer.add_char buf '\x05' (* cycle 5 *);
  Buffer.add_char buf '\xfe' (* structure id 254: not 0xff, out of range *);
  Buffer.add_string buf "\x00\x00\x00";
  (match Event.decode (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad structure id accepted");
  (* A varint that overflows a non-negative int, or runs past nine
     bytes, fails as the cycle and as a later field. *)
  List.iter
    (fun (what, src) ->
      match Event.decode src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("negative cycle", "\x00" ^ String.make 8 '\xff' ^ "\x7f\xff\x00\x00\x00");
      ("2^62 cycle", "\x00" ^ String.make 8 '\x80' ^ "\x40\xff\x00\x00\x00");
      ("overlong slot", "\x00\x05\xff" ^ String.make 20 '\xff' ^ "\x01\x00\x00");
    ];
  (* A valid frame around a corrupt payload, as the service could send:
     it unframes, and then the query decoder and the VCD renderer
     return errors instead of raising. *)
  let blob = Event.frame_streams [ ("case", "\xfe\x01") ] in
  match Event.unframe blob with
  | Error e -> Alcotest.failf "valid frame rejected: %s" e
  | Ok streams ->
    (match Query.of_stream "\xfe\x01" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "corrupt payload decoded by the query engine");
    (match Vcd.render streams with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "corrupt payload rendered")

(* {1 Framing} *)

let frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame_streams/unframe round-trips"
    QCheck.(list (pair (string_of_size Gen.(int_bound 16))
                    (string_of_size Gen.(int_bound 64))))
    (fun streams ->
      match Event.unframe (Event.frame_streams streams) with
      | Ok streams' -> streams = streams'
      | Error _ -> false)

let frame_concat =
  QCheck.Test.make ~count:100
    ~name:"concatenation of framed streams is valid framing"
    QCheck.(pair
              (list (pair small_string small_string))
              (list (pair small_string small_string)))
    (fun (a, b) ->
      match Event.unframe (Event.frame_streams a ^ Event.frame_streams b) with
      | Ok streams -> streams = a @ b
      | Error _ -> false)

let frame_output =
  QCheck.Test.make ~count:50 ~name:"output_frames writes the frame_streams bytes"
    QCheck.(list (pair small_string (string_of_size Gen.(int_bound 300))))
    (fun streams ->
      let path = Filename.temp_file "frames" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> Event.output_frames oc streams);
          In_channel.with_open_bin path In_channel.input_all = Event.frame_streams streams))

let test_unframe_rejects_corrupt () =
  List.iter
    (fun src ->
      match Event.unframe src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "corrupt framing accepted: %S" src)
    [
      "\x05ab"; "\x02ab\x7f"; "\xff";
      (* Length varints that decode to a negative length, to max_int (so
         that pos + n wraps), and that run past nine bytes. *)
      String.make 8 '\xff' ^ "\x7fabc";
      String.make 8 '\xff' ^ "\x3fabc";
      String.make 20 '\xff' ^ "\x01abc";
    ]

(* {1 Tap: wave records in the log} *)

let test_tap_noop_and_splice () =
  let s = List.hd Structure.all in
  let tap log kind ~cycle =
    Event.tap log ~kind ~cycle ~structure_id:(Structure.to_code s) ~slot:0
      ~ctx:Exec_context.Monitor ~value:1
  in
  let untapped = Log.create () in
  Alcotest.(check bool) "an untapped log is not tapped" false
    (Log.tapped untapped);
  tap untapped Event.Fill ~cycle:1;
  let all_records log =
    let n = ref 0 in
    Log.iter_waves log (fun _ -> incr n);
    !n
  in
  Alcotest.(check int) "an untapped log keeps no wave records" 0
    (all_records untapped);
  Alcotest.(check string) "an untapped log has no stream" ""
    (Event.of_log untapped);
  let t = Log.create ~wave:true () in
  let empty = Log.mark t in
  tap t Event.Fill ~cycle:1;
  let m = Log.mark t in
  tap t Event.Evict ~cycle:2;
  (* Restoring a mark drops the suffix and keeps the prefix bytes —
     even after the log was reset and reused by another case, which is
     why a mark is the bytes and not a length. *)
  Log.reset_to t empty;
  tap t Event.Flush ~cycle:9;
  Log.reset_to t m;
  tap t Event.Hit ~cycle:3;
  Log.record t ~cycle:4 ~ctx:(Exec_context.Enclave 0)
    (Log.Mode_switch
       { from_ctx = Exec_context.Monitor; to_ctx = Exec_context.Enclave 0 });
  (* Readers of simulation records see the switch alone, at index 0;
     the stream derives its context switch from that record. *)
  let indices = ref [] in
  Log.iter t (fun c -> indices := Log.Cursor.index c :: !indices);
  Alcotest.(check (list int)) "wave records are not simulation records" [ 0 ]
    !indices;
  Alcotest.(check int) "length counts simulation records" 1 (Log.length t);
  let kinds ?clip () =
    match Event.decode (Event.of_log ?clip t) with
    | Error e -> Alcotest.failf "spliced stream corrupt: %s" e
    | Ok evs ->
      List.map (fun (e : Event.t) -> Event.kind_to_string e.Event.kind) evs
  in
  Alcotest.(check (list string)) "prefix + suffix, no stale events"
    [ "fill"; "hit"; "ctx-switch" ] (kinds ());
  (* A clip keeps its window and the context switches before it. *)
  Alcotest.(check (list string)) "clip to cycles 2..3" [ "hit" ]
    (kinds ~clip:(2, 3) ());
  Alcotest.(check (list string)) "clip after the switch" [ "ctx-switch" ]
    (kinds ~clip:(5, 9) ())

(* {1 Query engine} *)

let synthetic_events =
  let s0 = List.nth Structure.all 0 and s1 = List.nth Structure.all 1 in
  [
    { Event.kind = Event.Ctx_switch; cycle = 0; structure = None; slot = 0;
      domain = 3; value = 4 };
    { Event.kind = Event.Fill; cycle = 5; structure = Some s0; slot = 2;
      domain = 4; value = 1 };
    { Event.kind = Event.Fill; cycle = 9; structure = Some s1; slot = 0;
      domain = 4; value = 1 };
    { Event.kind = Event.Hit; cycle = 12; structure = Some s0; slot = 2;
      domain = 1; value = 1 };
    { Event.kind = Event.Residue; cycle = 20; structure = Some s0; slot = 2;
      domain = 1; value = 1 };
  ]

let test_query_filters () =
  let s0 = List.nth Structure.all 0 and s1 = List.nth Structure.all 1 in
  let q =
    match Query.of_stream (encode_events synthetic_events) with
    | Ok q -> q
    | Error e -> Alcotest.failf "synthetic stream rejected: %s" e
  in
  Alcotest.(check int) "length" 5 (Query.length q);
  Alcotest.(check int) "filter by kind" 2
    (List.length (Query.filter ~kind:Event.Fill q));
  Alcotest.(check int) "filter by structure" 3
    (List.length (Query.filter ~structure:s0 q));
  Alcotest.(check int) "filter by cycle window" 2
    (List.length (Query.filter ~from_cycle:6 ~to_cycle:12 q));
  Alcotest.(check int) "conjunction" 1
    (List.length (Query.filter ~kind:Event.Fill ~structure:s0 q));
  Alcotest.(check bool) "structures in Structure.all order" true
    (Query.structures q = [ s0; s1 ]);
  Alcotest.(check bool) "cycle span" true (Query.cycle_span q = Some (0, 20));
  (match Query.last_before ~kind:Event.Fill ~structure:s0 q ~cycle:19 with
  | Some e -> Alcotest.(check int) "last_before finds the write" 5 e.Event.cycle
  | None -> Alcotest.fail "last_before missed");
  Alcotest.(check bool) "last_before respects the bound" true
    (Query.last_before ~kind:Event.Residue q ~cycle:19 = None)

(* {1 VCD exporter} *)

let render_ok streams =
  match Vcd.render streams with
  | Ok vcd -> vcd
  | Error e -> Alcotest.failf "render rejected its streams: %s" e

let test_vcd_render_validates () =
  let stream = encode_events synthetic_events in
  let vcd = render_ok [ ("case-a", stream); ("case-b", stream) ] in
  match Vcd.validate vcd with
  | Error e -> Alcotest.failf "rendered VCD invalid: %s" e
  | Ok stats ->
    (* 3 machine-wide signals + 3 per structure, 2 structures appear. *)
    Alcotest.(check int) "signal count" 9 stats.Vcd.signals;
    Alcotest.(check bool) "has timescale" true stats.Vcd.has_timescale;
    Alcotest.(check bool) "changes recorded" true (stats.Vcd.changes > 0);
    (* Two 0..20 streams laid end to end with a 10-cycle gap. *)
    Alcotest.(check int) "last time covers both cases" (20 + 10 + 20 + 10)
      stats.Vcd.last_time;
    (* Determinism: same input, same bytes. *)
    Alcotest.(check string) "render is deterministic" vcd
      (render_ok [ ("case-a", stream); ("case-b", stream) ])

let test_vcd_validate_rejects () =
  let vcd = render_ok [ ("case", encode_events synthetic_events) ] in
  let reject what src =
    match Vcd.validate src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" what
  in
  reject "empty input" "";
  reject "missing enddefinitions" "$timescale 1ns $end\n";
  reject "undeclared signal"
    (vcd ^ "1\x7f\n");
  (* Splice a backwards timestamp at the end. *)
  reject "backwards timestamp" (vcd ^ "#0\n#1\n#0\n" ^ "#0\n");
  (* Vector values on the 4-bit signal [!] of a minimal header: nine
     digits, and none. *)
  let four_bit =
    "$timescale 1ns $end\n$var wire 4 ! sig $end\n$enddefinitions $end\n#0\n"
  in
  reject "vector wider than its signal" (four_bit ^ "b101010101 !\n");
  reject "empty vector" (four_bit ^ "b !\n");
  ()

(* The renderer writes each stream in its own order, so a stream whose
   cycles go backwards (streams also arrive from the service) is an
   error that names it. *)
let test_vcd_rejects_backward_stream () =
  let forward = encode_events synthetic_events in
  let backward = encode_events (List.rev synthetic_events) in
  match Vcd.render [ ("in-order", forward); ("reversed", backward) ] with
  | Ok _ -> Alcotest.fail "rendered a stream whose cycles go backwards"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names the stream" e)
      true
      (String.starts_with ~prefix:"stream \"reversed\"" e)

(* {1 Cross-layer: runner splice, campaign determinism, provenance} *)

let slice_prefix n =
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take n (Teesec.Mitigation_eval.slice ())

(* The snapshot engine restores setup prefixes instead of replaying
   them; the tap's mark/splice must make the streams byte-identical to
   from-scratch runs, including on pooled machines serving many cases. *)
let test_runner_snapshot_wave_splice () =
  let config = Config.boom in
  let cases = slice_prefix 8 in
  let fresh =
    List.map
      (fun tc -> (Teesec.Runner.run ~wave:true config tc).Teesec.Runner.wave)
      cases
  in
  let snapshots = Teesec.Snapshot.create ~wave:true config in
  let restored =
    List.map
      (fun tc ->
        (Teesec.Runner.run ~snapshots ~wave:true config tc).Teesec.Runner.wave)
      cases
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d stream identical across snapshot restore" i)
        true (a = b))
    (List.combine fresh restored);
  Alcotest.(check bool) "streams are non-empty" true
    (List.for_all (fun s -> s <> "") fresh)

(* Verdicts and provenance must not move when the tap, the job count or
   the snapshot engine changes: the wave x jobs x snapshot projection of
   the byte-identity harness (test/equiv.ml) on a 12-case slice prefix. *)
let test_campaign_differential () =
  Equiv.row
    ~variants:
      (Equiv.across ~jobs:[ 1; 4 ] ~snapshot:[ false; true ]
         ~taps:[ false; true ] ())
    (Equiv.campaign (slice_prefix 12))
    Config.boom ()

(* The snapshot engine alone decides whether a run is tapped: created
   with taps on it yields the streams a tapped replay does without being
   told [~wave], and created with taps off it yields none even when
   asked. *)
let test_engine_decides_wave () =
  let config = Config.boom in
  let cases = slice_prefix 6 in
  let waves ?snapshots ?wave () =
    (Teesec.Campaign.run ?snapshots ?wave config cases).Teesec.Campaign.waves
  in
  let engine wave = Teesec.Snapshot.create ~wave config in
  let replayed = waves ~wave:true () in
  Alcotest.(check int) "one stream per case" (List.length cases)
    (List.length replayed);
  Alcotest.(check bool) "tapped engine, no ~wave: the replayed streams" true
    (waves ~snapshots:(engine true) () = replayed);
  Alcotest.(check bool) "tapped engine, ~wave:true: the same streams" true
    (waves ~snapshots:(engine true) ~wave:true () = replayed);
  Alcotest.(check bool) "untapped engine ignores ~wave:true" true
    (waves ~snapshots:(engine false) ~wave:true () = [])

(* Table 3 findings must come with non-empty causal chains on both
   cores, and the records must survive their JSON round trip and replay
   identically through the snapshot engine (what `explain --verify`
   asserts). *)
let test_provenance_chains_both_cores () =
  List.iter
    (fun config ->
      let r =
        Teesec.Campaign.run ~jobs:1 config (Teesec.Mitigation_eval.slice ())
      in
      let prov = r.Teesec.Campaign.provenance in
      Alcotest.(check bool) "found cases exist" true
        (r.Teesec.Campaign.found <> []);
      List.iter
        (fun case ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has provenance"
               config.Config.name (Teesec.Case.to_string case))
            true
            (List.exists
               (fun (p : Provenance.t) ->
                 p.Provenance.p_case = Teesec.Case.to_string case)
               prov))
        r.Teesec.Campaign.found;
      List.iter
        (fun (p : Provenance.t) ->
          (* Ids parse back to the core, case and structure they name. *)
          (match Provenance.parse_id p.Provenance.p_id with
          | Ok (core, case, tcid, st) ->
            Alcotest.(check string) "id core" p.Provenance.p_core core;
            Alcotest.(check string) "id case" p.Provenance.p_case case;
            Alcotest.(check int) "id testcase" p.Provenance.p_testcase_id tcid;
            Alcotest.(check string) "id structure" p.Provenance.p_structure
              (Simlog.Structure.to_string st);
            Alcotest.(check bool) "core resolves" true
              (Config.of_core_name core <> None)
          | Error e -> Alcotest.failf "id %s does not parse: %s" p.Provenance.p_id e);
          (* JSON round trip. *)
          match Provenance.of_json (Provenance.to_json p) with
          | Ok p' ->
            Alcotest.(check bool) "json round-trips" true (Provenance.equal p p')
          | Error e -> Alcotest.failf "provenance json rejected: %s" e)
        prov;
      (* Data-leakage chains name the writing access and a window. *)
      let data_records =
        List.filter
          (fun (p : Provenance.t) -> p.Provenance.p_check = "data-leakage")
          prov
      in
      Alcotest.(check bool) "data chains exist" true (data_records <> []);
      List.iter
        (fun (p : Provenance.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s names its writing access" p.Provenance.p_id)
            true
            (p.Provenance.p_write <> None && p.Provenance.p_window <> None))
        data_records)
    [ Config.boom; Config.xiangshan ]

let test_provenance_list_json () =
  let r =
    Teesec.Campaign.run ~jobs:1 Config.boom (slice_prefix 6)
  in
  let prov = r.Teesec.Campaign.provenance in
  match Provenance.list_of_json (Provenance.list_to_json prov) with
  | Ok prov' ->
    Alcotest.(check bool) "list json round-trips" true
      (List.length prov = List.length prov'
      && List.for_all2 Provenance.equal prov prov')
  | Error e -> Alcotest.failf "list json rejected: %s" e

(* Campaign waves render to a VCD the strict validator accepts — the CI
   smoke step's slice campaign — and the tap's volume on it is pinned:
   a change that adds, drops or re-encodes events moves these counts. *)
let test_campaign_wave_vcd () =
  let r =
    Teesec.Campaign.run ~jobs:1 ~wave:true Config.boom
      (Teesec.Mitigation_eval.slice ())
  in
  let waves = r.Teesec.Campaign.waves in
  let total f = List.fold_left (fun acc (_, s) -> acc + f s) 0 waves in
  Alcotest.(check int) "events on the BOOM slice" 64_896
    (total (fun s -> match Query.of_stream s with
                       | Ok q -> Query.length q
                       | Error e -> Alcotest.failf "campaign stream rejected: %s" e));
  Alcotest.(check int) "stream bytes on the BOOM slice" 503_204
    (total String.length);
  match Vcd.validate (render_ok waves) with
  | Ok stats ->
    Alcotest.(check bool) "signals and changes present" true
      (stats.Vcd.signals > 0 && stats.Vcd.changes > 0 && stats.Vcd.last_time > 0)
  | Error e -> Alcotest.failf "campaign VCD invalid: %s" e

(* The Fills the machine no longer taps come from their writes: every
   I-cache refill on the binary path and every injected bit flip shows
   in the stream as a Fill of its structure, at its cycle and slot. *)
let test_derived_fills () =
  let m = Uarch.Machine.create ~wave:true Config.boom in
  Riscv.Pmp.set (Uarch.Machine.pmp m) 0
    (Riscv.Pmp.napot_entry ~base:0x8000_0000L ~size:0x8000_0000
       ~perm:Riscv.Pmp.full_access ~locked:false);
  let prog =
    Riscv.Program.of_instrs ~base:0x8000_0000L
      [ Riscv.Instr.Li (5, 7L); Riscv.Instr.Halt ]
  in
  ignore (Uarch.Machine.run_binary m ~base:0x8000_0000L (Riscv.Encode.assemble prog));
  List.iter
    (fun s -> ignore (Uarch.Machine.flip_bit m ~structure:s ~select:0 ~bit:3))
    Structure.all;
  let log = Uarch.Machine.log m in
  let fills =
    match Event.decode (Event.of_log log) with
    | Ok evs -> List.filter (fun (e : Event.t) -> e.Event.kind = Event.Fill) evs
    | Error e -> Alcotest.failf "stream rejected: %s" e
  in
  let writes =
    List.filter_map
      (fun (r : Log.record) ->
        match r.Log.event with
        | Log.Write { structure; entries = e :: _; origin }
          when structure = Structure.L1i_data || origin = Log.Fault_inject ->
          Some (r.Log.cycle, structure, e.Log.slot, origin)
        | _ -> None)
      (Log.to_list log)
  in
  Alcotest.(check bool) "an I-cache refill and a bit flip were logged" true
    (List.exists (fun (_, _, _, o) -> o = Log.Refill) writes
    && List.exists (fun (_, _, _, o) -> o = Log.Fault_inject) writes);
  List.iter
    (fun (cycle, s, slot, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s write at cycle %d is a fill" (Structure.to_string s) cycle)
        true
        (List.exists
           (fun (e : Event.t) ->
             e.Event.cycle = cycle && e.Event.structure = Some s && e.Event.slot = slot)
           fills))
    writes

let () =
  Alcotest.run "wave"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest codec_roundtrip;
          Alcotest.test_case "corrupt streams are errors" `Quick
            test_codec_rejects_corrupt;
          QCheck_alcotest.to_alcotest frame_roundtrip;
          QCheck_alcotest.to_alcotest frame_concat;
          Alcotest.test_case "corrupt framing is an error" `Quick
            test_unframe_rejects_corrupt;
          QCheck_alcotest.to_alcotest frame_output;
        ] );
      ( "tap",
        [
          Alcotest.test_case "noop is inert; mark/reset splices bytes" `Quick
            test_tap_noop_and_splice;
        ] );
      ( "query",
        [
          Alcotest.test_case "filters, structures, span, last_before" `Quick
            test_query_filters;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "render validates and is deterministic" `Quick
            test_vcd_render_validates;
          Alcotest.test_case "validator rejects malformed files" `Quick
            test_vcd_validate_rejects;
          Alcotest.test_case "a backward stream is an error" `Quick
            test_vcd_rejects_backward_stream;
        ] );
      ( "integration",
        [
          Alcotest.test_case "snapshot restore splices streams exactly"
            `Quick test_runner_snapshot_wave_splice;
          Alcotest.test_case
            "verdicts+provenance identical across wave/jobs/snapshot" `Slow
            test_campaign_differential;
          Alcotest.test_case "Table 3 findings carry causal chains (both cores)"
            `Slow test_provenance_chains_both_cores;
          Alcotest.test_case "provenance list JSON round-trips" `Quick
            test_provenance_list_json;
          Alcotest.test_case "campaign waves render to valid VCD" `Quick
            test_campaign_wave_vcd;
          Alcotest.test_case "the engine decides whether a run is tapped"
            `Quick test_engine_decides_wave;
          Alcotest.test_case "refills and bit flips show as fills" `Quick
            test_derived_fills;
        ] );
    ]
