open! Import

let apply_oneshot machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Bit_flip structure ->
    ignore (Machine.flip_bit machine ~structure ~select:f.select ~bit:f.bit)
  | Fault_model.Hpc_corrupt ->
    ignore
      (Machine.flip_bit machine ~structure:Structure.Hpm_counters ~select:f.select
         ~bit:f.bit)
  | Fault_model.Snapshot_delay ->
    Machine.delay_snapshots machine ~count:(1 + (f.select mod 3))
  | Fault_model.Flush_drop _ | Fault_model.Flush_partial _
  | Fault_model.Pmp_stuck_grant ->
    assert false (* windowed; handled by activate/deactivate *)

let activate machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Flush_drop structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_dropped
  | Fault_model.Flush_partial structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_partial
  | Fault_model.Pmp_stuck_grant -> Machine.set_pmp_stuck_grant machine true
  | Fault_model.Bit_flip _ | Fault_model.Snapshot_delay | Fault_model.Hpc_corrupt ->
    assert false

let deactivate machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Flush_drop structure | Fault_model.Flush_partial structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_normal
  | Fault_model.Pmp_stuck_grant -> Machine.set_pmp_stuck_grant machine false
  | Fault_model.Bit_flip _ | Fault_model.Snapshot_delay | Fault_model.Hpc_corrupt ->
    assert false

exception Spent_clean

let arm ?(stop_when_inert = false) machine (plan : Fault_plan.t) =
  (* Windows are relative to the arming cycle, so a plan perturbs the
     run identically whether the setup prefix was replayed or restored
     from a snapshot (the two paths arm at the same cycle, but relative
     windows make the contract independent of where the fork point
     lands). *)
  let base = Machine.cycle machine in
  let logged = Machine.faults_logged machine in
  (* [faults] is sorted by window start, so the head is always the next
     fault to fire. *)
  let pending = ref plan.Fault_plan.faults in
  let active = ref [] in
  let deferred = ref false in
  let hook m =
    let cycle = Machine.cycle m - base in
    (* Close expired windows before opening new ones, so a window of
       length zero cycles never sticks. *)
    let expired, still =
      List.partition (fun ((_ : Fault_plan.fault), until) -> cycle >= until) !active
    in
    active := still;
    List.iter (fun (f, _) -> deactivate m f) expired;
    let rec fire () =
      match !pending with
      | f :: rest when f.Fault_plan.window_start <= cycle ->
        pending := rest;
        if Fault_model.deferred f.Fault_plan.model then deferred := true;
        if Fault_model.windowed f.Fault_plan.model then begin
          activate m f;
          active := (f, f.Fault_plan.window_start + f.Fault_plan.window_len) :: !active
        end
        else apply_oneshot m f;
        fire ()
      | _ -> ()
    in
    fire ();
    (* Spent: a hook with nothing pending and nothing active does
       nothing, so removing it is exact — and lets the machine's line
       paths run again.  If the plan also left no trace, no fault made
       the run differ (it would have logged), so the rest of the run is
       the clean run. *)
    match (!pending, !active) with
    | [], [] ->
      Machine.set_advance_hook m None;
      if stop_when_inert && (not !deferred) && Machine.faults_logged m = logged then
        raise Spent_clean
    | _ -> ()
  in
  Machine.set_advance_hook machine (Some hook)
