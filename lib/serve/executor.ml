open! Import

(* Engines are keyed by (config hash, wave): a snapshot engine's pooled
   machines either carry a tap or don't, so wave and non-wave shards
   served by the same worker must not share one. *)
type engines = {
  eng_obs : Obs.t;
  eng_tbl : (int64 * bool, Snapshot.t) Hashtbl.t;
}

let create_engines ?(obs = Obs.noop) () : engines =
  { eng_obs = obs; eng_tbl = Hashtbl.create 4 }

let engine_for engines ~wave config =
  let key = (Config.hash config, wave) in
  match Hashtbl.find_opt engines.eng_tbl key with
  | Some snap -> snap
  | None ->
    let snap = Snapshot.create ~obs:engines.eng_obs ~wave config in
    Hashtbl.add engines.eng_tbl key snap;
    snap

(* {2 Payload codecs} *)

let case_of_string s =
  match List.find_opt (fun c -> Case.to_string c = s) Case.all with
  | Some c -> c
  | None -> raise (Codec.Decode_error (Printf.sprintf "unknown case id %S" s))

let encode_case b c = Codec.str b (Case.to_string c)
let decode_case d = case_of_string (Codec.str' d)

(* Provenance records cross the wire as their canonical JSON rendering:
   the writer is byte-deterministic, so store digests stay stable, and
   the reader is the same one [explain] uses on saved artifacts. *)
let encode_provenance b p = Codec.str b (Provenance.to_json p)

let decode_provenance d =
  match Provenance.of_json (Codec.str' d) with
  | Ok p -> p
  | Error e ->
    raise (Codec.Decode_error ("bad provenance record: " ^ e))

let encode_campaign_outcome b (co : Campaign.case_outcome) =
  Codec.str b co.Campaign.co_name;
  Codec.list b encode_case co.Campaign.co_cases;
  Codec.int b co.Campaign.co_residue;
  Codec.int b co.Campaign.co_cycles;
  Codec.int b co.Campaign.co_log_records;
  Codec.str b co.Campaign.co_summary;
  Codec.list b encode_provenance co.Campaign.co_provenance

let decode_campaign_outcome d =
  let co_name = Codec.str' d in
  let co_cases = Codec.list' d decode_case in
  let co_residue = Codec.int' d in
  let co_cycles = Codec.int' d in
  let co_log_records = Codec.int' d in
  let co_summary = Codec.str' d in
  let co_provenance = Codec.list' d decode_provenance in
  {
    Campaign.co_name;
    co_cases;
    co_residue;
    co_cycles;
    co_log_records;
    co_summary;
    co_provenance;
    (* Store payloads deliberately exclude waves: digests (and warm
       store hits) stay byte-stable across wave settings.  Waves ride
       the [shard_obs] side channel instead. *)
    co_wave = "";
  }

let encode_campaign_outcomes outcomes =
  let b = Codec.enc () in
  Codec.list b encode_campaign_outcome outcomes;
  Codec.to_string b

let decode_campaign_outcomes s =
  let d = Codec.of_string s in
  let outcomes = Codec.list' d decode_campaign_outcome in
  if not (Codec.at_end d) then
    raise (Codec.Decode_error "trailing bytes after campaign payload");
  outcomes

let encode_unit_diff b ((u : Inject_campaign.unit_diff), faults) =
  Codec.str b u.Inject_campaign.testcase;
  Codec.list b encode_case u.Inject_campaign.masked_cases;
  Codec.list b encode_case u.Inject_campaign.spurious_cases;
  Codec.int b faults

let decode_unit_diff d =
  let testcase = Codec.str' d in
  let masked_cases = Codec.list' d decode_case in
  let spurious_cases = Codec.list' d decode_case in
  let faults = Codec.int' d in
  ({ Inject_campaign.testcase; masked_cases; spurious_cases }, faults)

(* An inject case's clean baseline is a campaign outcome and ships with
   that codec, waves excluded alike. *)
let encode_inject_eval b (e : Inject_campaign.case_eval) =
  encode_campaign_outcome b e.Inject_campaign.ce_base;
  Codec.int b e.Inject_campaign.ce_span;
  Codec.list b encode_unit_diff (Array.to_list e.Inject_campaign.ce_units)

let decode_inject_eval d =
  let ce_base = decode_campaign_outcome d in
  let ce_span = Codec.int' d in
  let units = Codec.list' d decode_unit_diff in
  { Inject_campaign.ce_base; ce_span; ce_units = Array.of_list units }

let encode_inject_evals evals =
  let b = Codec.enc () in
  Codec.list b encode_inject_eval evals;
  Codec.to_string b

let decode_inject_evals s =
  let d = Codec.of_string s in
  let evals = Codec.list' d decode_inject_eval in
  if not (Codec.at_end d) then
    raise (Codec.Decode_error "trailing bytes after inject payload");
  evals

(* {2 Execution} *)

(* [execute ~engines ~wave work] returns (store payload, wave blob).
   The payload is byte-identical for every [wave] setting — waves never
   enter it (or the content-addressed store keyed on it); the blob is a
   [Wave.Event.frame_streams] framing of the shard's per-case streams,
   [""] with taps off, and rides back to the daemon in [shard_obs].  The
   engine carries the wave setting, so the pipelines are never told it
   separately. *)
let execute ~engines ~wave { Request.spec; cases } =
  let config =
    match Request.validate spec with
    | Ok config -> config
    | Error msg -> invalid_arg ("Executor: " ^ msg)
  in
  let obs = engines.eng_obs in
  let snapshots = engine_for engines ~wave config in
  let testcases = List.map Request.testcase_of_case_desc cases in
  let framed streams =
    Wave.Event.frame_streams (List.filter (fun (_, w) -> w <> "") streams)
  in
  let outcome_waves outcomes =
    framed
      (List.map
         (fun (co : Campaign.case_outcome) ->
           (co.Campaign.co_name, co.Campaign.co_wave))
         outcomes)
  in
  match spec with
  | Request.Campaign _ ->
    let outcomes =
      List.map (Campaign.eval_case ~obs ~snapshots config) testcases
    in
    (encode_campaign_outcomes outcomes, outcome_waves outcomes)
  | Request.Inject { faults; seed; _ } ->
    let plan_list = Fault_plan.sample ~seed ~count:faults in
    let evals =
      List.map (Inject_campaign.eval_case ~snapshots config plan_list) testcases
    in
    ( encode_inject_evals evals,
      outcome_waves (List.map (fun e -> e.Inject_campaign.ce_base) evals) )
  | Request.Fuzz { options; _ } ->
    let report = Engine.run ~obs ~snapshots options config in
    (Fuzz_report.to_json_string report, framed report.Engine.waves)
