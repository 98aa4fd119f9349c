open! Import

type recommendation = {
  mitigations : Mitigation.t list;
  closes : Case.id list;
  residual : Case.id list;
  overhead_pct : float;
}

type result = {
  config : Config.t;
  baseline : Case.id list;
  ranked : recommendation list;
}

(* Flush-everything subsumes the individual flushes, so combining it
   with them is pointless; offer it only alone or with the datapath
   change. *)
let atoms =
  [
    Mitigation.Flush_l1d;
    Mitigation.Flush_store_buffer;
    Mitigation.Clear_illegal_data_returns;
    Mitigation.Flush_lfb;
    Mitigation.Flush_bpu_hpc;
    Mitigation.Tag_bpu_hpc;
  ]

let rec combinations k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest

(* Sets of up to two knobs: each costs one slice campaign, and a pair
   already closes every XiangShan case (test_integration pins it). *)
let candidate_sets =
  let sized = combinations 1 atoms @ combinations 2 atoms in
  ([] :: sized)
  @ [
      [ Mitigation.Flush_everything ];
      [ Mitigation.Flush_everything; Mitigation.Clear_illegal_data_returns ];
    ]

let evaluate config =
  let slice = Mitigation_eval.slice () in
  let found_under mitigations =
    (Campaign.run (Config.with_mitigations config mitigations) slice).Campaign.found
  in
  let baseline = found_under [] in
  let baseline_cycles, _ =
    Overhead.workload_cycles config ~workload:Overhead.Mixed ~rounds:8
  in
  let measure mitigations =
    let found = found_under mitigations in
    let residual = List.filter (fun c -> List.exists (Case.equal c) found) baseline in
    let closes =
      List.filter (fun c -> not (List.exists (Case.equal c) found)) baseline
    in
    let cycles, _ =
      Overhead.workload_cycles
        (Config.with_mitigations config mitigations)
        ~workload:Overhead.Mixed ~rounds:8
    in
    {
      mitigations;
      closes;
      residual;
      overhead_pct =
        (if baseline_cycles = 0 then 0.0
         else
           100.0
           *. (float_of_int cycles -. float_of_int baseline_cycles)
           /. float_of_int baseline_cycles);
    }
  in
  let ranked =
    List.stable_sort
      (fun a b ->
        match Int.compare (List.length a.residual) (List.length b.residual) with
        | 0 -> (
          match Float.compare a.overhead_pct b.overhead_pct with
          | 0 -> Int.compare (List.length a.mitigations) (List.length b.mitigations)
          | c -> c)
        | c -> c)
      (List.map measure candidate_sets)
  in
  { config; baseline; ranked }

let best result =
  match result.ranked with
  | r :: _ -> r
  | [] -> invalid_arg "Recommend.best: no candidates"

let pp_recommendation fmt r =
  Format.fprintf fmt "%-55s residual: %-12s overhead: %+6.1f%%"
    (if r.mitigations = [] then "(none)"
     else String.concat " + " (List.map Mitigation.to_string r.mitigations))
    (if r.residual = [] then "none"
     else String.concat "," (List.map Case.to_string r.residual))
    r.overhead_pct

let pp_result fmt result =
  Format.fprintf fmt "Mitigation recommendations for %s (baseline finds %s):@."
    result.config.Config.name
    (String.concat "," (List.map Case.to_string result.baseline));
  List.iteri
    (fun i r -> if i < 8 then Format.fprintf fmt "  %d. %a@." (i + 1) pp_recommendation r)
    result.ranked
