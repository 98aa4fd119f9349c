open! Import

let pp fmt (r : Explore.t) =
  Format.fprintf fmt
    "Symbolic exploration of the SBI surface on %s (max %d paths/call%s)@."
    r.Explore.core r.Explore.max_paths
    (if r.Explore.truncated then ", TRUNCATED" else "");
  let t = r.Explore.totals in
  Format.fprintf fmt
    "  %d paths, %d witnesses (%d replay ok, %d monitor ok), %d symex-only@."
    t.Explore.paths_total t.Explore.witnesses_total t.Explore.replay_ok_total
    t.Explore.monitor_ok_total t.Explore.symex_only_total;
  Format.fprintf fmt
    "  %d missing-validation findings; solver: %d unsat, %d gave up; %d coverage edges@."
    t.Explore.findings_total t.Explore.unsat_total t.Explore.gave_up_total
    t.Explore.edges_covered;
  (* One row per scenario × call. *)
  List.iter
    (fun (u : Explore.unit_report) ->
      let witnessed =
        List.length (List.filter (fun p -> p.Explore.witness <> None) u.Explore.paths)
      in
      let accepted =
        List.filter
          (fun (p : Explore.path_report) ->
            match p.Explore.leaf with
            | Some { Sbi_paths.outcome = Sbi_paths.Accepted; _ } -> true
            | _ -> false)
          u.Explore.paths
      in
      let findings =
        List.concat_map (fun p -> List.map Explore.finding_to_string p.Explore.findings)
          accepted
      in
      Format.fprintf fmt "  %-10s %-16s %2d paths, %2d witnessed%s@."
        u.Explore.scenario
        (Sbi.to_string u.Explore.call)
        (List.length u.Explore.paths)
        witnessed
        (if findings = [] then ""
         else Printf.sprintf "  [%s]" (String.concat " " findings)))
    r.Explore.units

let to_text r = Format.asprintf "%a" pp r

(* {2 JSON} *)

let json_witness (w : Explore.witness) =
  Json.Obj
    [
      ( "args",
        Json.list
          (fun a -> Json.Str (Word.to_hex a))
          (Array.to_list w.Explore.args) );
      ("replay_ok", Bool w.Explore.replay_ok);
      ("monitor_ok", Bool w.Explore.monitor_ok);
    ]

let json_leaf (l : Sbi_paths.leaf) =
  Json.Obj
    [
      ("leaf_id", Json.int l.Sbi_paths.leaf_id);
      ("outcome", Str (Sbi_paths.outcome_to_string l.Sbi_paths.outcome));
      ( "result",
        Json.option (fun r -> Json.Str (Word.to_hex r)) l.Sbi_paths.result );
      ("eid", Json.option Json.int l.Sbi_paths.eid);
    ]

let json_path (p : Explore.path_report) =
  Json.Obj
    [
      ("path_id", Json.int p.Explore.path_id);
      ("leaf", Json.option json_leaf p.Explore.leaf);
      ("decisions", Json.list (fun b -> Json.Bool b) p.Explore.decisions);
      ("constraints", Json.list (fun c -> Json.Str c) p.Explore.constraints);
      ("witness", Json.option json_witness p.Explore.witness);
      ( "findings",
        Json.list
          (fun f -> Json.Str (Explore.finding_to_string f))
          p.Explore.findings );
      ("baseline_reachable", Bool p.Explore.baseline_reachable);
      ("steps", Json.int p.Explore.steps);
    ]

let json_unit (u : Explore.unit_report) =
  Json.Obj
    [
      ("scenario", Str u.Explore.scenario);
      ("call", Str (Sbi.to_string u.Explore.call));
      ("forks", Json.int u.Explore.forks);
      ("pruned", Json.int u.Explore.pruned);
      ("truncated", Bool u.Explore.truncated);
      ("paths", Json.list json_path u.Explore.paths);
    ]

let to_json_string (r : Explore.t) =
  let t = r.Explore.totals in
  Json.to_document
    (Obj
       [
         ("core", Str r.Explore.core);
         ("max_paths", Json.int r.Explore.max_paths);
         ("truncated", Bool r.Explore.truncated);
         ( "totals",
           Obj
             [
               ("paths", Json.int t.Explore.paths_total);
               ("witnesses", Json.int t.Explore.witnesses_total);
               ("replay_ok", Json.int t.Explore.replay_ok_total);
               ("monitor_ok", Json.int t.Explore.monitor_ok_total);
               ("symex_only", Json.int t.Explore.symex_only_total);
               ("findings", Json.int t.Explore.findings_total);
               ("unsat", Json.int t.Explore.unsat_total);
               ("gave_up", Json.int t.Explore.gave_up_total);
               ("edges_covered", Json.int t.Explore.edges_covered);
             ] );
         ("units", Json.list json_unit r.Explore.units);
       ])

let save_json ~path r = Obs.write_file ~path (to_json_string r)
