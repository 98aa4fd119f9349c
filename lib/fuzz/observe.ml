open! Import

type t = {
  outcome : Campaign.case_outcome;
  edges : (int * int) list;
}

let run ?snapshots ?wave config tc =
  let run = Runner.run ?snapshots ?wave config tc in
  let findings = Checker.check run.Runner.log run.Runner.tracker in
  {
    outcome = Campaign.outcome_of_run ~config run findings;
    edges = List.map (fun (e, n) -> (Edge.index e, n)) (Edge.of_log run.Runner.log);
  }
