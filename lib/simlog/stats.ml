open! Import

type t = {
  records : int;
  writes : int;
  snapshots : int;
  commits : int;
  exceptions : int;
  mode_switches : int;
  faults_injected : int;
  first_cycle : int;
  last_cycle : int;
  by_structure : (Structure.t * int) list;
  by_origin : (string * int) list;
}

let of_log log =
  let writes = ref 0 and snapshots = ref 0 and commits = ref 0 in
  let exceptions = ref 0 and mode_switches = ref 0 and faults = ref 0 in
  let first_cycle = ref max_int and last_cycle = ref 0 in
  let structures = Array.make Structure.count 0 in
  let origins = Array.make Log.origin_count 0 in
  Log.iter log (fun c ->
      let cycle = Log.Cursor.cycle c in
      if cycle < !first_cycle then first_cycle := cycle;
      if cycle > !last_cycle then last_cycle := cycle;
      match Log.Cursor.kind c with
      | Log.Write_kind ->
        incr writes;
        let s = Structure.to_code (Log.Cursor.structure c) in
        structures.(s) <- structures.(s) + 1;
        let o = Log.origin_to_code (Log.Cursor.origin c) in
        origins.(o) <- origins.(o) + 1
      | Log.Snapshot_kind -> incr snapshots
      | Log.Commit_kind -> incr commits
      | Log.Exception_kind -> incr exceptions
      | Log.Mode_switch_kind -> incr mode_switches
      | Log.Fault_kind -> incr faults);
  {
    records = Log.length log;
    writes = !writes;
    snapshots = !snapshots;
    commits = !commits;
    exceptions = !exceptions;
    mode_switches = !mode_switches;
    faults_injected = !faults;
    first_cycle = (if !first_cycle = max_int then 0 else !first_cycle);
    last_cycle = !last_cycle;
    by_structure =
      List.filter_map
        (fun s ->
          let n = structures.(Structure.to_code s) in
          if n > 0 then Some (s, n) else None)
        Structure.all;
    by_origin =
      List.sort compare
        (List.filter_map
           (fun o ->
             let n = origins.(Log.origin_to_code o) in
             if n > 0 then Some (Log.origin_to_string o, n) else None)
           Log.all_origins);
  }

let pp fmt t =
  Format.fprintf fmt
    "%d records over cycles %d..%d: %d writes, %d snapshots, %d commits, %d \
     exceptions, %d mode switches%s@."
    t.records t.first_cycle t.last_cycle t.writes t.snapshots t.commits t.exceptions
    t.mode_switches
    (if t.faults_injected > 0 then
       Printf.sprintf ", %d injected faults" t.faults_injected
     else "");
  Format.fprintf fmt "  writes by structure:";
  List.iter (fun (s, n) -> Format.fprintf fmt " %s:%d" (Structure.to_string s) n) t.by_structure;
  Format.fprintf fmt "@.  writes by provenance:";
  List.iter (fun (o, n) -> Format.fprintf fmt " %s:%d" o n) t.by_origin;
  Format.fprintf fmt "@."
