(* Bench regression gate: diff a fresh bench run against the checked-in
   BENCH_campaign.json and BENCH_snapshot.json and fail (exit 1) when a
   series' throughput dropped by more than [threshold] percent, or when
   a series cannot be compared at all.

   Usage: compare --baseline DIR --fresh DIR

   Every metric compared here is higher-is-better (cases/s, units/s), so
   a regression is fresh < baseline * (1 - threshold / 100).  A record
   that is missing, unparsable or holds an entry without its key or
   metric fails, on either side, and so does a baseline key absent from
   the fresh run: a gate that skips what it cannot read passes when a
   record is deleted or a key renamed.

   Each file's [jobs] is printed for both sides, so a fresh run at
   another job count than its baseline shows in the log. *)

module Json = Obs.Json

type series = {
  file : string;  (* BENCH_*.json basename *)
  entries : string;  (* field holding the list of records *)
  key : string;  (* string field identifying a record within the list *)
  metric : string;  (* higher-is-better throughput field *)
}

let catalogue =
  [
    {
      file = "BENCH_campaign.json";
      entries = "campaigns";
      key = "core";
      metric = "cases_per_s";
    };
    {
      file = "BENCH_snapshot.json";
      entries = "phases";
      key = "phase";
      metric = "snapshot_units_per_s";
    };
  ]

let threshold = 20.0

(* The record's [jobs] and its (key, metric) pairs. *)
let load spec dir =
  let path = Filename.concat dir spec.file in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error (path ^ ": missing")
  | contents -> (
    match Json.parse contents with
    | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
    | Ok doc -> (
      match Option.bind (Json.member spec.entries doc) Json.to_list with
      | None -> Error (Printf.sprintf "%s: no %S array" path spec.entries)
      | Some records ->
        let entry r =
          match
            (Json.string_field spec.key r, Json.number_field spec.metric r)
          with
          | Some k, Some m -> Some (k, m)
          | _ -> None
        in
        let entries = List.filter_map entry records in
        if List.compare_lengths entries records <> 0 then
          Error
            (Printf.sprintf "%s: an entry lacks %S or %S" path spec.key
               spec.metric)
        else Ok (Json.number_field "jobs" doc, entries)))

let () =
  let baseline = ref "" in
  let fresh = ref "" in
  let usage = "compare --baseline DIR --fresh DIR" in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "DIR  Checked-in BENCH_*.json");
      ("--fresh", Arg.Set_string fresh, "DIR  Freshly produced BENCH_*.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !baseline = "" || !fresh = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let failures = ref 0 in
  let compared = ref 0 in
  let jobs = function Some n -> Printf.sprintf "%g" n | None -> "?" in
  List.iter
    (fun spec ->
      match (load spec !baseline, load spec !fresh) with
      | Error e, _ | _, Error e ->
        incr failures;
        Printf.printf "FAIL %s\n" e
      | Ok (base_jobs, base), Ok (fresh_jobs, new_) ->
        Printf.printf "%s: baseline jobs %s, fresh jobs %s\n" spec.file
          (jobs base_jobs) (jobs fresh_jobs);
        List.iter
          (fun (key, b) ->
            match List.assoc_opt key new_ with
            | None ->
              incr failures;
              Printf.printf "FAIL %s %s: absent from the fresh run\n" spec.file
                key
            | Some f ->
              incr compared;
              let delta_pct = if b = 0. then 0. else (f -. b) /. b *. 100. in
              let regressed = delta_pct < -.threshold in
              if regressed then incr failures;
              Printf.printf "%s %s %s: %.1f -> %.1f %s (%+.1f%%)\n"
                (if regressed then "REGRESSION" else "ok")
                spec.file key b f spec.metric delta_pct)
          base)
    catalogue;
  Printf.printf
    "%d metric(s) compared, %d failure(s): regressions beyond %.0f%% or \
     series that could not be compared\n"
    !compared !failures threshold;
  if !failures > 0 then exit 1
