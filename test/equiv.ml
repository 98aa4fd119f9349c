(* The byte-identity harness: the one implementation of the determinism
   contract across execution knobs.

   A row is one pipeline on one core.  Its reference run is jobs 1, the
   replay path, wave taps off and the noop sink, by a direct call; every
   variant of

   - jobs (1 or 4 in the full matrix),
   - the snapshot engine off or on,
   - wave taps off or on,
   - the observability sink noop or active

   must reproduce it byte for byte.  Compared per row: the rendered
   artifacts (campaign CSV and provenance JSON; inject JSON and
   provenance; fuzz JSON and the saved corpus; every pipeline's printed
   report), the inject result itself, the progress stream, and the
   per-case wave streams — none with taps off, one per case with taps
   on, identical across every tapped variant.

   test/test_equiv.ml runs every row over the full matrix; the suites
   that own a knob (test_obs the sink, test_snapshot the engine,
   test_wave the taps, test_fuzz and test_inject the job count) run
   their own projection of it at their own parameters.  A new execution
   knob or pipeline joins the contract here. *)

module Config = Uarch.Config

type variant = { jobs : int; snapshot : bool; taps : bool; active : bool }

let reference = { jobs = 1; snapshot = false; taps = false; active = false }

(* Every combination of the given settings, jobs outermost. *)
let across ?(jobs = [ 1 ]) ?(snapshot = [ false ]) ?(taps = [ false ])
    ?(active = [ false ]) () =
  List.concat_map
    (fun jobs ->
      List.concat_map
        (fun snapshot ->
          List.concat_map
            (fun taps ->
              List.map (fun active -> { jobs; snapshot; taps; active }) active)
            taps)
        snapshot)
    jobs

let full =
  let bools = [ false; true ] in
  across ~jobs:[ 1; 4 ] ~snapshot:bools ~taps:bools ~active:bools ()

let label v =
  Printf.sprintf "jobs=%d snapshot=%b taps=%b sink=%s" v.jobs v.snapshot
    v.taps
    (if v.active then "active" else "noop")

(* What one run leaves behind.  [value] is compared structurally. *)
type 'a run = {
  value : 'a;
  artifacts : (string * string) list;  (** (name, bytes) *)
  progress : string list;
  waves : (string * string) list;
}

(* [lines] is the progress stream's length and [streams] the tapped wave
   stream count: one per test case, per faulted unit or per executed
   candidate. *)
type 'a pipeline = {
  lines : int;
  streams : int;
  run : Config.t -> variant -> 'a run;
}

(* Run [f] under [v] the way the CLI's execution knobs do: the engine
   carries the wave setting, so [?wave] reaches only the replay path. *)
let under v config
    (f :
      progress:(int -> int -> string -> unit) ->
      jobs:int ->
      obs:Obs.t ->
      ?snapshots:Teesec.Snapshot.t ->
      ?wave:bool ->
      unit ->
      'a * (string * string) list * (string * string) list) =
  let obs = if v.active then Obs.create () else Obs.noop in
  let lines = ref [] in
  let progress i n line =
    lines := Printf.sprintf "[%d/%d] %s" i n line :: !lines
  in
  let value, artifacts, waves =
    if v.snapshot then
      f ~progress ~jobs:v.jobs ~obs
        ~snapshots:(Teesec.Snapshot.create ~obs ~wave:v.taps config)
        ()
    else f ~progress ~jobs:v.jobs ~obs ~wave:v.taps ()
  in
  { value; artifacts; progress = List.rev !lines; waves }

let slice_prefix n =
  List.filteri (fun i _ -> i < n) (Teesec.Mitigation_eval.slice ())

let campaign cases =
  let n = List.length cases in
  {
    lines = n;
    streams = n;
    run =
      (fun config v ->
        under v config (fun ~progress ~jobs ~obs ?snapshots ?wave () ->
            let r =
              Teesec.Campaign.run ~progress ~jobs ~obs ?snapshots ?wave config
                cases
            in
            ( (),
              [
                ("CSV", Teesec.Tables.table3_csv [ r ]);
                ( "provenance",
                  Teesec.Provenance.list_to_json r.Teesec.Campaign.provenance );
                ("report", Format.asprintf "%a" Teesec.Campaign.pp_result r);
              ],
              r.Teesec.Campaign.waves )));
  }

(* The result itself is compared too, without the waves it carries only
   when tapped. *)
let inject ~seed ~plans cases =
  let n = List.length cases in
  {
    lines = plans * n;
    streams = n;
    run =
      (fun config v ->
        under v config (fun ~progress ~jobs ~obs ?snapshots ?wave () ->
            let r =
              Inject.Inject_campaign.run ~progress ~jobs ~obs ?snapshots ?wave
                ~seed ~plans config cases
            in
            ( { r with Inject.Inject_campaign.waves = [] },
              [
                ("JSON", Inject.Robustness_report.to_json_string r);
                ( "provenance",
                  Teesec.Provenance.list_to_json
                    r.Inject.Inject_campaign.provenance );
                ("report", Format.asprintf "%a" Inject.Robustness_report.pp r);
              ],
              r.Inject.Inject_campaign.waves )));
  }

let fuzz (options : Fuzz.Engine.options) =
  {
    lines = options.Fuzz.Engine.budget;
    streams = options.Fuzz.Engine.budget;
    run =
      (fun config v ->
        under v config (fun ~progress ~jobs ~obs ?snapshots ?wave () ->
            let r =
              Fuzz.Engine.run ~progress ~jobs ~obs ?snapshots ?wave options
                config
            in
            ( (),
              [
                ("JSON", Fuzz.Fuzz_report.to_json_string r);
                ("corpus", Fuzz.Corpus_io.to_string r.Fuzz.Engine.corpus_cases);
                ("report", Format.asprintf "%a" Fuzz.Fuzz_report.pp r);
              ],
              r.Fuzz.Engine.waves )));
  }

(* Check [pipeline] on [config]: the reference against every variant. *)
let row ?(variants = full) pipeline config () =
  let want = pipeline.run config reference in
  Alcotest.(check int) "reference: one progress line per unit" pipeline.lines
    (List.length want.progress);
  List.iter
    (fun (name, bytes) ->
      Alcotest.(check bool) ("reference: " ^ name ^ " is not empty") false
        (List.mem bytes [ ""; "[]" ]))
    want.artifacts;
  let tapped = ref None in
  List.iter
    (fun v ->
      let got = if v = reference then want else pipeline.run config v in
      let l = label v in
      List.iter2
        (fun (name, a) (_, b) -> Alcotest.(check string) (l ^ ": " ^ name) a b)
        want.artifacts got.artifacts;
      Alcotest.(check bool) (l ^ ": identical results") true
        (want.value = got.value);
      Alcotest.(check (list string)) (l ^ ": progress stream") want.progress
        got.progress;
      if not v.taps then
        Alcotest.(check int) (l ^ ": no wave streams without taps") 0
          (List.length got.waves)
      else begin
        Alcotest.(check int) (l ^ ": one wave stream per case")
          pipeline.streams (List.length got.waves);
        match !tapped with
        | None -> tapped := Some got.waves
        | Some w ->
          Alcotest.(check bool) (l ^ ": wave streams identical") true
            (w = got.waves)
      end)
    variants
