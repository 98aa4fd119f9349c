open! Import

type t = {
  sm : Security_monitor.t;
  machine : Machine.t;
  tracker : Secret.tracker;
  params : Params.t;
  mutable victim : int option;
  mutable attacker : int option;
  mutable hpc_baseline : (int * Word.t) list;
  mutable program_trace : (string * Program.t) list;
}

let create ?(wave = false) config params =
  let machine = Machine.create ~wave config in
  let sm = Security_monitor.install machine in
  {
    sm;
    machine;
    tracker = Secret.create_tracker ();
    params;
    victim = None;
    attacker = None;
    hpc_baseline = [];
    program_trace = [];
  }

type snapshot = {
  snap_machine : Machine.snapshot;
  snap_sm : Security_monitor.snapshot;
  snap_tracker : Secret.capture;
  snap_victim : int option;
  snap_attacker : int option;
  snap_hpc_baseline : (int * Word.t) list;
  snap_program_trace : (string * Program.t) list;
}

let snapshot t =
  {
    snap_machine = Machine.snapshot t.machine;
    snap_sm = Security_monitor.snapshot t.sm;
    snap_tracker = Secret.capture_tracker t.tracker;
    snap_victim = t.victim;
    snap_attacker = t.attacker;
    snap_hpc_baseline = t.hpc_baseline;
    snap_program_trace = t.program_trace;
  }

let restore t s =
  Machine.restore t.machine s.snap_machine;
  Security_monitor.restore t.sm s.snap_sm;
  Secret.restore_tracker s.snap_tracker ~into:t.tracker;
  t.victim <- s.snap_victim;
  t.attacker <- s.snap_attacker;
  t.hpc_baseline <- s.snap_hpc_baseline;
  t.program_trace <- s.snap_program_trace

let record_program t ~label prog = t.program_trace <- (label, prog) :: t.program_trace
let programs t = List.rev t.program_trace

let victim_exn t =
  match t.victim with
  | Some eid -> eid
  | None -> invalid_arg "Env.victim_exn: no victim enclave created"

let attacker_exn t =
  match t.attacker with
  | Some eid -> eid
  | None -> invalid_arg "Env.attacker_exn: no attacker enclave created"

let victim_secret_line t =
  (* Secrets live in the second half of the region so that enclave code
     (laid out from the region base) never collides with them. *)
  Int64.add
    (Memory_layout.enclave_base (victim_exn t))
    (Int64.of_int (Memory_layout.enclave_size / 2))

let secret_addr t = Int64.add (victim_secret_line t) (Int64.of_int t.params.Params.offset)
