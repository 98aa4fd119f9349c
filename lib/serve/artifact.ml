open! Import

let assemble spec payloads =
  match Request.validate spec with
  | Error e -> Error e
  | Ok config -> (
    try
      match spec with
      | Request.Campaign _ ->
        let outcomes =
          List.concat_map Executor.decode_campaign_outcomes payloads
        in
        Ok (Tables.table3_csv [ Campaign.aggregate config outcomes ])
      | Request.Inject { faults; seed; _ } ->
        let evals = List.concat_map Executor.decode_inject_evals payloads in
        let plan_list = Fault_plan.sample ~seed ~count:faults in
        Ok
          (Robustness_report.to_json_string
             (Inject_campaign.aggregate ~seed ~plan_list config evals))
      | Request.Fuzz _ -> (
        match payloads with
        | [ json ] -> Ok json
        | l ->
          Error
            (Printf.sprintf "fuzz request expects exactly 1 shard payload, got %d"
               (List.length l)))
    with Codec.Decode_error msg -> Error ("undecodable shard payload: " ^ msg))
