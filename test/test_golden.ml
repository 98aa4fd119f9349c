(* Golden verdict digests over the full corpus.

   For every test case of the 585-case corpus, on both cores, the case's
   serialised simulation log ([Simlog.Serialize.to_string]), its checker
   findings ([Checker.pp_finding], one per line) and the provenance
   chains of all its findings ([Provenance.list_to_json]) are digested;
   the per-case digests are folded into one digest per core.  The
   expected values were recorded from the list-backed simulation log, so
   they pin every reader of the log (checker, provenance, serialiser)
   byte for byte across changes to the log's representation.

   The same digests must come out of the snapshot engine and of the
   replay path ([Runner.run] without an engine).  The engine's counters
   after the corpus are pinned too ([engine_stats]), so a change to how
   snapshots are stored cannot change what the engine does.

   The symex report is pinned the same way: one digest per core of the
   JSON document [symex --json] writes at the default [--max-paths],
   recorded before the explorer forked its monitor replays from an
   established scenario base.

   The wave streams are pinned as well: per core, the MD5 of the framed
   full-corpus streams ([Wave.Event.frame_streams] of [Campaign.run]'s
   waves, the bytes [campaign --full --wave FILE.bin] writes), from a
   tapped snapshot engine and from the tapped replay path.  They were
   recorded while the machine still wrote a second, wave-only event
   buffer beside its log.  The tapped logs, which now hold the wave
   events too, must still give the full-corpus digests above.  The VCD
   rendering of the same streams (the bytes [campaign --full --wave
   FILE.vcd] writes) is pinned per core too, recorded from the renderer
   that collected every value change and sorted them by time. *)

open Teesec
module Config = Uarch.Config

let case_text config (outcome : Runner.outcome) =
  let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Simlog.Serialize.to_string outcome.Runner.log);
  Buffer.add_string buf "-- findings\n";
  List.iter
    (fun f ->
      Buffer.add_string buf (Format.asprintf "%a" Checker.pp_finding f);
      Buffer.add_char buf '\n')
    findings;
  Buffer.add_string buf "-- provenance\n";
  Buffer.add_string buf
    (Provenance.list_to_json (Provenance.of_outcome ~config outcome findings));
  Buffer.contents buf

let core_digest ?(wave = false) ?snapshots config =
  let digests = Buffer.create (16 * 600) in
  List.iter
    (fun tc ->
      let outcome = Runner.run ?snapshots ~wave config tc in
      Buffer.add_string digests (Digest.string (case_text config outcome)))
    (Fuzzer.corpus ());
  Digest.to_hex (Digest.string (Buffer.contents digests))

let golden =
  [
    (Config.boom, "4b0a015f4f6ddf91b08c90eec89f5893");
    (Config.xiangshan, "b4a7314056543beaf219f1a2010cba1b");
  ]

(* A fresh engine's counters after the corpus at jobs 1, the same on both
   cores. *)
let engine_stats =
  [ ("hits", 535); ("misses", 50); ("stores", 564); ("replayed", 564); ("restored", 894) ]

let check_core ~snapshot (config, expected) () =
  let snapshots = if snapshot then Some (Snapshot.create config) else None in
  let core = Config.core_kind_to_string config.Config.kind in
  Alcotest.(check string)
    (Printf.sprintf "%s digest (%s)" core (if snapshot then "snapshot" else "replay"))
    expected
    (core_digest ?snapshots config);
  Option.iter
    (fun engine ->
      let s = Snapshot.stats engine in
      Alcotest.(check (list (pair string int)))
        (core ^ " engine counters") engine_stats
        [
          ("hits", s.Snapshot.hits);
          ("misses", s.Snapshot.misses);
          ("stores", s.Snapshot.stores);
          ("replayed", s.Snapshot.replayed_gadgets);
          ("restored", s.Snapshot.restored_gadgets);
        ])
    snapshots

let symex_golden =
  [
    (Config.boom, "56e6a2dbdc883c566594c23dc39cc93d");
    (Config.xiangshan, "90db637e385bb0a5ce4efb6461690d0d");
  ]

let check_symex (config, expected) () =
  Alcotest.(check string)
    (Config.core_kind_to_string config.Config.kind ^ " symex report digest")
    expected
    (Digest.to_hex
       (Digest.string (Symex.Symex_report.to_json_string (Symex.Explore.run config))))

let waves_golden =
  [
    (Config.boom, "67bd437b64c662ac472bed74847a92d0");
    (Config.xiangshan, "0d50208904c4284f24a9d7c1c86d8862");
  ]

let vcd_golden =
  [
    (Config.boom, "969512facb83a5b638b5cb2c7e91d8d0");
    (Config.xiangshan, "e22e0723fbd419b5ed140ddb3c4465f5");
  ]

let check_waves ~snapshot (config, expected) () =
  let engine () = if snapshot then Some (Snapshot.create ~wave:true config) else None in
  let r = Campaign.run_full ?snapshots:(engine ()) ~wave:true config in
  Alcotest.(check string)
    (Printf.sprintf "%s wave digest (%s)"
       (Config.core_kind_to_string config.Config.kind)
       (if snapshot then "snapshot" else "replay"))
    expected
    (Digest.to_hex (Digest.string (Wave.Event.frame_streams r.Campaign.waves)));
  Alcotest.(check string)
    (Printf.sprintf "%s vcd digest (%s)"
       (Config.core_kind_to_string config.Config.kind)
       (if snapshot then "snapshot" else "replay"))
    (List.assq config vcd_golden)
    (match Wave.Vcd.render r.Campaign.waves with
    | Ok vcd -> Digest.to_hex (Digest.string vcd)
    | Error e -> Alcotest.fail e);
  Alcotest.(check string)
    (Printf.sprintf "%s digest with taps on (%s)"
       (Config.core_kind_to_string config.Config.kind)
       (if snapshot then "snapshot" else "replay"))
    (List.assq config golden)
    (core_digest ~wave:true ?snapshots:(engine ()) config)

let () =
  Alcotest.run "golden"
    [
      ( "full-corpus",
        List.concat_map
          (fun ((config, _) as g) ->
            let name = Config.core_kind_to_string config.Config.kind in
            [
              Alcotest.test_case (name ^ " snapshot engine") `Slow
                (check_core ~snapshot:true g);
              Alcotest.test_case (name ^ " replay path") `Slow
                (check_core ~snapshot:false g);
            ])
          golden );
      ( "symex",
        List.map
          (fun ((config, _) as g) ->
            Alcotest.test_case
              (Config.core_kind_to_string config.Config.kind ^ " report")
              `Slow (check_symex g))
          symex_golden );
      ( "waves",
        List.concat_map
          (fun ((config, _) as g) ->
            let name = Config.core_kind_to_string config.Config.kind in
            [
              Alcotest.test_case (name ^ " tapped engine") `Slow
                (check_waves ~snapshot:true g);
              Alcotest.test_case (name ^ " tapped replay") `Slow
                (check_waves ~snapshot:false g);
            ])
          waves_golden );
    ]
