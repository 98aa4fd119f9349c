open! Import

type finding_kind = Unconstrained | High_bits_ignored
type finding = { sym : int; kind : finding_kind }

let finding_to_string f =
  Printf.sprintf "a%d:%s" f.sym
    (match f.kind with
    | Unconstrained -> "unconstrained"
    | High_bits_ignored -> "high-bits-ignored")

type witness = { args : Word.t array; replay_ok : bool; monitor_ok : bool }

type path_report = {
  path_id : int;
  leaf : Sbi_paths.leaf option;
  decisions : bool list;
  constraints : string list;
  witness : witness option;
  findings : finding list;
  baseline_reachable : bool;
  steps : int;
}

type unit_report = {
  call : Sbi.call;
  scenario : string;
  paths : path_report list;
  forks : int;
  pruned : int;
  truncated : bool;
}

type totals = {
  paths_total : int;
  witnesses_total : int;
  replay_ok_total : int;
  monitor_ok_total : int;
  symex_only_total : int;
  findings_total : int;
  unsat_total : int;
  gave_up_total : int;
  edges_covered : int;
}

type t = {
  core : string;
  max_paths : int;
  units : unit_report list;
  totals : totals;
  truncated : bool;
}

let default_max_paths = Eval.default_max_paths

let bit63 = Int64.min_int

(* Missing-validation classification of an accepted path: a documented
   argument nobody constrained is taken entirely on faith; one whose
   refined domain still has bit 63 free is aliased by the handler's
   [Int64.to_int] truncation. *)
let findings_of call (path : Eval.path) =
  let constrained_syms =
    List.sort_uniq compare (List.concat_map Expr.rel_syms path.Eval.constraints)
  in
  List.filter_map
    (fun sym ->
      if not (List.mem sym constrained_syms) then Some { sym; kind = Unconstrained }
      else if
        not
          (Int64.equal (Int64.logand (Domain.unknown_bits path.Eval.env.(sym)) bit63) 0L)
      then Some { sym; kind = High_bits_ignored }
      else None)
    (Sbi_paths.documented_args call)

let leaf_of (model : Sbi_paths.model) (path : Eval.path) =
  match (path.Eval.stop, path.Eval.a1) with
  | Eval.Halted, Expr.Const id ->
    List.find_opt
      (fun (l : Sbi_paths.leaf) -> Int64.equal (Int64.of_int l.Sbi_paths.leaf_id) id)
      model.Sbi_paths.leaves
  | _ -> None

(* Program-level replay: the concrete execution of the same model
   program must land on the predicted leaf with the predicted result. *)
let replay_program (model : Sbi_paths.model) (leaf : Sbi_paths.leaf) args =
  let (a0, a1), stop = Eval.concrete model.Sbi_paths.program ~args in
  stop = Eval.Halted
  && Int64.equal a1 (Int64.of_int leaf.Sbi_paths.leaf_id)
  && (match leaf.Sbi_paths.result with
     | Some r -> Int64.equal a0 r
     | None -> true)

(* Monitor-level replay: issue the real ECALL on the scenario's restored
   base and compare the monitor's a0 with the leaf's prediction. *)
let replay_monitor ~obs base (leaf : Sbi_paths.leaf) args =
  Obs.span obs "symex/replay" (fun () ->
      let _stop = Sbi_paths.replay base args in
      let a0 = Machine.get_reg (Security_monitor.machine (Sbi_paths.monitor base)) Instr.a0 in
      let ok =
        match leaf.Sbi_paths.outcome with
        | Sbi_paths.Accepted -> (
          match leaf.Sbi_paths.result with
          | Some r -> Int64.equal a0 r
          | None -> not (Int64.equal a0 Sbi.error_code))
        | Sbi_paths.Rejected_wrong_code | Sbi_paths.Rejected_invalid_id
        | Sbi_paths.Rejected_state _ | Sbi_paths.Rejected_slots
        | Sbi_paths.Rejected_context ->
          Int64.equal a0 Sbi.error_code
      in
      (ok, List.map (fun (e, c) -> (Edge.index e, c)) (Sbi_paths.edges base)))

type unit_result = {
  u_report : unit_report;
  u_edges : (int * int) list list;  (* per witness, in path order *)
  u_unsat : int;
  u_gave_up : int;
}

let explore_unit ~obs ~max_paths base (scenario : Sbi_paths.scenario) call =
  let model = Sbi_paths.model scenario call in
  let res = Eval.run ~max_paths model.Sbi_paths.program in
  let stats = Solver.stats () in
  (* The baseline driver issues the correct function code against
     enclave 0 — what every concrete gadget in the corpus does. *)
  let baseline_leaf =
    let args = Array.make 8 0L in
    args.(7) <- Sbi.to_code call;
    match Eval.concrete model.Sbi_paths.program ~args with
    | (_, a1), Eval.Halted -> Some a1
    | _ -> None
  in
  let edges = ref [] in
  let paths =
    List.map
      (fun (p : Eval.path) ->
        let leaf = leaf_of model p in
        let witness =
          match (leaf, Solver.concretize ~stats p.Eval.constraints) with
          | Some leaf, Some args ->
            let replay_ok = replay_program model leaf args in
            let monitor_ok, wedges = replay_monitor ~obs base leaf args in
            edges := wedges :: !edges;
            Some { args; replay_ok; monitor_ok }
          | _, _ -> None
        in
        let findings =
          match leaf with
          | Some { Sbi_paths.outcome = Sbi_paths.Accepted; _ } ->
            findings_of call p
          | _ -> []
        in
        let baseline_reachable =
          match (leaf, baseline_leaf) with
          | Some l, Some b -> Int64.equal (Int64.of_int l.Sbi_paths.leaf_id) b
          | _ -> false
        in
        {
          path_id = p.Eval.path_id;
          leaf;
          decisions = p.Eval.decisions;
          constraints = List.map Expr.rel_to_string p.Eval.constraints;
          witness;
          findings;
          baseline_reachable;
          steps = p.Eval.steps;
        })
      res.Eval.paths
  in
  {
    u_report =
      {
        call;
        scenario = scenario.Sbi_paths.name;
        paths;
        forks = res.Eval.forks;
        pruned = res.Eval.pruned;
        truncated = res.Eval.truncated;
      };
    u_edges = List.rev !edges;
    u_unsat = stats.Solver.unsat;
    u_gave_up = stats.Solver.gave_up;
  }

(* One scenario's units in {!Sbi.all} order, all replayed from one
   base: the scenario is established once, not once per witness. *)
let explore_scenario ~obs ~max_paths config (scenario : Sbi_paths.scenario) =
  let base =
    Obs.span obs
      ~args:[ ("scenario", Obs.Tracer.String scenario.Sbi_paths.name) ]
      "symex/establish"
      (fun () -> Sbi_paths.base config scenario)
  in
  List.map (explore_unit ~obs ~max_paths base scenario) Sbi.all

let run ?(jobs = 1) ?(max_paths = default_max_paths) ?(obs = Obs.noop)
    ?(scenarios = Sbi_paths.scenarios) config =
  if max_paths < 1 then
    invalid_arg (Printf.sprintf "Explore.run: max_paths must be >= 1, got %d" max_paths);
  (* The scenario is the parallel unit, so each domain holds at most one
     base at a time; concatenating keeps the scenario-major order. *)
  let results =
    Obs.span obs "symex/explore" (fun () ->
        List.concat
          (Parallel.Pool.parmap ~obs ~jobs
             (explore_scenario ~obs ~max_paths config)
             scenarios))
  in
  (* Deterministic merge on the calling domain; the coverage bitmap is
     the same Edge encoding the fuzzer populates. *)
  let bitmap = Bitmap.create () in
  let totals =
    List.fold_left
      (fun acc u ->
        List.iter (fun e -> ignore (Bitmap.add bitmap e)) u.u_edges;
        let paths = u.u_report.paths in
        let count f = List.length (List.filter f paths) in
        {
          paths_total = acc.paths_total + List.length paths;
          witnesses_total =
            acc.witnesses_total + count (fun p -> p.witness <> None);
          replay_ok_total =
            acc.replay_ok_total
            + count (fun p ->
                  match p.witness with Some w -> w.replay_ok | None -> false);
          monitor_ok_total =
            acc.monitor_ok_total
            + count (fun p ->
                  match p.witness with Some w -> w.monitor_ok | None -> false);
          symex_only_total =
            acc.symex_only_total
            + count (fun p ->
                  p.witness <> None
                  && (not p.baseline_reachable)
                  && match p.leaf with
                     | Some l ->
                       l.Sbi_paths.outcome <> Sbi_paths.Rejected_wrong_code
                     | None -> false);
          findings_total =
            acc.findings_total
            + List.fold_left (fun n p -> n + List.length p.findings) 0 paths;
          unsat_total = acc.unsat_total + u.u_unsat;
          gave_up_total = acc.gave_up_total + u.u_gave_up;
          edges_covered = 0;
        })
      {
        paths_total = 0;
        witnesses_total = 0;
        replay_ok_total = 0;
        monitor_ok_total = 0;
        symex_only_total = 0;
        findings_total = 0;
        unsat_total = 0;
        gave_up_total = 0;
        edges_covered = 0;
      }
      results
  in
  let totals = { totals with edges_covered = Bitmap.covered_edges bitmap } in
  let truncated = List.exists (fun u -> u.u_report.truncated) results in
  (match Obs.metrics obs with
  | None -> ()
  | Some m ->
    let bump name help v =
      Obs.Metrics.inc ~by:v (Obs.Metrics.counter m ~help name)
    in
    bump "teesec_symex_paths_total" "Symbolic paths completed." totals.paths_total;
    bump "teesec_symex_forks_total" "Symbolic branches forked."
      (List.fold_left (fun n u -> n + u.u_report.forks) 0 results);
    bump "teesec_symex_pruned_total" "Branch directions proven infeasible."
      (List.fold_left (fun n u -> n + u.u_report.pruned) 0 results);
    bump "teesec_symex_witnesses_total" "Concrete witnesses synthesised."
      totals.witnesses_total;
    bump "teesec_symex_solver_unsat_total" "Path conditions proven unsat."
      totals.unsat_total;
    bump "teesec_symex_solver_gave_up_total"
      "Concretisations abandoned at the search budget." totals.gave_up_total;
    Obs.Metrics.set
      (Obs.Metrics.gauge m ~help:"Distinct coverage edges over symex replays."
         "teesec_symex_edges_covered")
      (float_of_int totals.edges_covered));
  {
    core = config.Config.name;
    max_paths;
    units = List.map (fun u -> u.u_report) results;
    totals;
    truncated;
  }
