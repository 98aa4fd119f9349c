open! Import

type outcome = {
  testcase : Testcase.t;
  log : Log.t;
  tracker : Secret.tracker;
  env : Env.t;
  cycles : int;
  fork_cycle : int;
  log_records : int;
  wave : string;
}

let run ?snapshots ?prepare ?(wave = false) config (testcase : Testcase.t) =
  let prefix, access = Testcase.split testcase in
  let env =
    match snapshots with
    | Some engine ->
      if Snapshot.config_hash engine <> Config.hash config then
        invalid_arg "Runner.run: snapshot engine built for a different config";
      Snapshot.establish engine testcase
    | None ->
      let env = Env.create ~wave config testcase.Testcase.params in
      List.iter (fun g -> g.Gadget.emit env) prefix;
      env
  in
  (* [prepare] runs at the fork point — after the shared setup prefix,
     before the access gadget — so a faulted run behaves identically
     whether the prefix was replayed or restored from a snapshot. *)
  let fork_cycle = Machine.cycle env.Env.machine in
  (match prepare with Some f -> f env | None -> ());
  access.Gadget.emit env;
  (* Force a final snapshot so residue of the last gadget is logged. *)
  Machine.switch_context env.Env.machine
    ~to_ctx:(Exec_context.Host Priv.Supervisor);
  let log = Machine.log env.Env.machine in
  {
    testcase;
    log;
    tracker = env.Env.tracker;
    env;
    cycles = Machine.cycle env.Env.machine;
    fork_cycle;
    log_records = Log.length log;
    wave = Wave.Event.of_log log;
  }
