open! Import

type t = {
  config : Config.t;
  testcases : int;
  per_path : (Access_path.t * int) list;
  paths_covered : int;
  structures_observed : Structure.t list;
  origins_observed : Log.origin list;
  path_coverage_pct : float;
  structure_coverage_pct : float;
}

(* The prefetcher only fires on cores that have one; every other
   structure below receives Write events on both cores. *)
let writable_structures =
  [
    Structure.Reg_file;
    Structure.Lfb;
    Structure.Store_buffer;
    Structure.Ptw_cache;
    Structure.Ubtb;
    Structure.Ftb;
    Structure.Wb_buffer;
    Structure.Prefetcher;
  ]

(* The edges one test case wrote ({!Simlog.Edge.of_log}), in
   first-observed order.  Computed in-domain; the merge below replays
   them per case in corpus order, so the accumulated tables (and their
   fold order) match the sequential run exactly. *)
let observe config tc = Simlog.Edge.of_log (Runner.run config tc).Runner.log

let measure ?(jobs = 1) config testcases =
  let path_counts = Hashtbl.create 16 in
  let structures = Hashtbl.create 16 in
  let origins = Hashtbl.create 16 in
  let observations = Parallel.Pool.parmap ~jobs (observe config) testcases in
  List.iter2
    (fun tc edges ->
      Hashtbl.replace path_counts tc.Testcase.path
        (1 + Option.value (Hashtbl.find_opt path_counts tc.Testcase.path) ~default:0);
      List.iter
        (fun ((e : Simlog.Edge.t), _) ->
          Hashtbl.replace structures e.structure ();
          Hashtbl.replace origins e.origin ())
        edges)
    testcases observations;
  let per_path =
    List.map
      (fun p -> (p, Option.value (Hashtbl.find_opt path_counts p) ~default:0))
      Access_path.all
  in
  let paths_covered = List.length (List.filter (fun (_, n) -> n > 0) per_path) in
  let structures_observed =
    List.filter (fun s -> Hashtbl.mem structures s) Structure.all
  in
  let writable_here =
    List.filter
      (fun s ->
        (not (Structure.equal s Structure.Prefetcher))
        || config.Config.has_l1_prefetcher)
      writable_structures
  in
  let observed_writable =
    List.filter (fun s -> List.exists (Structure.equal s) structures_observed) writable_here
  in
  {
    config;
    testcases = List.length testcases;
    per_path;
    paths_covered;
    structures_observed;
    origins_observed = Hashtbl.fold (fun o () acc -> o :: acc) origins [];
    path_coverage_pct =
      100.0 *. float_of_int paths_covered /. float_of_int (List.length Access_path.all);
    structure_coverage_pct =
      100.0
      *. float_of_int (List.length observed_writable)
      /. float_of_int (List.length writable_here);
  }

let pp fmt t =
  Format.fprintf fmt "Coverage on %s over %d test cases:@." t.config.Config.name
    t.testcases;
  Format.fprintf fmt "  access paths exercised: %d/%d (%.0f%%)@." t.paths_covered
    (List.length Access_path.all) t.path_coverage_pct;
  List.iter
    (fun (p, n) ->
      Format.fprintf fmt "    %-28s %4d test case(s)@." (Access_path.to_string p) n)
    t.per_path;
  Format.fprintf fmt "  structures with observed writes: %s (%.0f%%)@."
    (String.concat ", " (List.map Structure.to_string t.structures_observed))
    t.structure_coverage_pct;
  Format.fprintf fmt "  access-path provenances observed: %s@."
    (String.concat ", "
       (List.sort compare (List.map Log.origin_to_string t.origins_observed)))
