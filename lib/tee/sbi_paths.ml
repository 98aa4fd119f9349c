open! Import

type scenario = { name : string; states : Enclave.state list }

(* One scenario per validation outcome the handler can produce: the
   empty table exercises invalid-id paths, each single-enclave state
   exercises one lifecycle check, "mixed" provides the ownership
   confusions (resume of a destroyed enclave, destroy of a fresh one)
   and "full" exhausts the create path. *)
let scenarios =
  [
    { name = "empty"; states = [] };
    { name = "fresh"; states = [ Enclave.Fresh ] };
    { name = "stopped"; states = [ Enclave.Stopped ] };
    { name = "exited"; states = [ Enclave.Exited ] };
    { name = "destroyed"; states = [ Enclave.Destroyed ] };
    {
      name = "mixed";
      states = [ Enclave.Stopped; Enclave.Fresh; Enclave.Destroyed ];
    };
    {
      name = "full";
      states = List.init Memory_layout.max_enclaves (fun _ -> Enclave.Fresh);
    };
  ]

type outcome =
  | Accepted
  | Rejected_wrong_code
  | Rejected_invalid_id
  | Rejected_state of Enclave.state
  | Rejected_slots
  | Rejected_context

let outcome_to_string = function
  | Accepted -> "accepted"
  | Rejected_wrong_code -> "wrong-code"
  | Rejected_invalid_id -> "invalid-id"
  | Rejected_state s -> "state-" ^ Enclave.state_to_string s
  | Rejected_slots -> "out-of-slots"
  | Rejected_context -> "wrong-context"

type leaf = {
  leaf_id : int;
  outcome : outcome;
  result : Word.t option;
  eid : int option;
}

type model = {
  call : Sbi.call;
  scenario : scenario;
  program : Program.t;
  leaves : leaf list;
}

let documented_args call =
  match call with
  | Sbi.Exit_enclave -> [ 7 ]
  | Sbi.Create_enclave | Sbi.Run_enclave | Sbi.Stop_enclave
  | Sbi.Resume_enclave | Sbi.Destroy_enclave | Sbi.Attest_enclave ->
    [ 0; 7 ]

(* {2 Model-program compilation}

   The program mirrors [Security_monitor.handle_ecall] line by line for
   one call under one concrete enclave table:

   - the [a7] comparison against the call's function code;
   - [let eid = Int64.to_int arg0]: on a 64-bit platform [Int64.to_int]
     keeps the low 63 bits, so two arguments differing only in bit 63
     dispatch to the same enclave — modelled exactly as
     [t1 <- (a0 << 1) >>logical 1];
   - the linear [List.find_opt] over enclave ids 0..n-1 (creation is
     sequential, and destroyed enclaves remain in the table);
   - the lifecycle comparisons, which the scenario makes concrete.

   Each root-to-leaf path terminates in [li a1, leaf_id; li a0, result;
   halt], so predicted and concrete executions can be compared on the
   final (a0, a1) pair. *)

type builder = {
  mutable elements : Program.element list;  (* reversed *)
  mutable leaves_rev : leaf list;
  mutable next_leaf : int;
}

let emit b i = b.elements <- Program.Instr i :: b.elements
let emit_label b l = b.elements <- Program.Label l :: b.elements

let emit_leaf b ?label ?eid ~outcome ~result () =
  let leaf_id = b.next_leaf in
  b.next_leaf <- leaf_id + 1;
  (match label with Some l -> emit_label b l | None -> ());
  emit b (Instr.Li (Instr.a1, Int64.of_int leaf_id));
  emit b (Instr.Li (Instr.a0, Option.value result ~default:0L));
  emit b Instr.Halt;
  b.leaves_rev <- { leaf_id; outcome; result; eid } :: b.leaves_rev

let err = Some Sbi.error_code

let model scenario call =
  let states = Array.of_list scenario.states in
  let n = Array.length states in
  if n > Memory_layout.max_enclaves then
    invalid_arg "Sbi_paths.model: scenario exceeds max_enclaves";
  let b = { elements = []; leaves_rev = []; next_leaf = 0 } in
  (* Dispatch: does a7 select this call at all? *)
  emit b (Instr.Li (Instr.t0, Sbi.to_code call));
  emit b (Instr.Branch (Instr.Ne, Instr.a7, Instr.t0, "wrong_code"));
  let leaf_for_state k =
    let st = states.(k) in
    let accepted outcome_result =
      emit_leaf b ~label:(Printf.sprintf "enc_%d" k) ~eid:k ~outcome:Accepted
        ~result:outcome_result ()
    in
    let rejected () =
      emit_leaf b ~label:(Printf.sprintf "enc_%d" k) ~eid:k
        ~outcome:(Rejected_state st) ~result:err ()
    in
    match call with
    | Sbi.Run_enclave -> if st = Enclave.Fresh then accepted (Some 0L) else rejected ()
    | Sbi.Resume_enclave ->
      if st = Enclave.Stopped then accepted (Some 0L) else rejected ()
    | Sbi.Destroy_enclave ->
      if st = Enclave.Stopped || st = Enclave.Exited then accepted (Some 0L)
      else rejected ()
    | Sbi.Attest_enclave ->
      (* [attest_enclave] looks the id up in the full table — including
         destroyed enclaves — and never checks the state: the
         measurement of a destroyed enclave is still served.  The
         result value is the region hash, unknown at compile time. *)
      accepted None
    | Sbi.Create_enclave | Sbi.Stop_enclave | Sbi.Exit_enclave ->
      assert false
  in
  (match call with
  | Sbi.Create_enclave ->
    (* No argument is inspected: the documented size in a0 is accepted
       unvalidated.  Slot exhaustion is concrete under the scenario. *)
    if n < Memory_layout.max_enclaves then
      emit_leaf b ~outcome:Accepted ~result:(Some (Int64.of_int n)) ()
    else emit_leaf b ~outcome:Rejected_slots ~result:err ()
  | Sbi.Stop_enclave ->
    (* Accepted as a no-op acknowledgement for any a0 whatsoever. *)
    emit_leaf b ~outcome:Accepted ~result:(Some 0L) ()
  | Sbi.Exit_enclave ->
    (* Only meaningful from enclave context; the host gets an error. *)
    emit_leaf b ~outcome:Rejected_context ~result:err ()
  | Sbi.Run_enclave | Sbi.Resume_enclave | Sbi.Destroy_enclave
  | Sbi.Attest_enclave ->
    (* eid = low 63 bits of a0, then the linear table search. *)
    emit b (Instr.Alui (Instr.Sll, Instr.t1, Instr.a0, 1L));
    emit b (Instr.Alui (Instr.Srl, Instr.t1, Instr.t1, 1L));
    for k = 0 to n - 1 do
      emit b (Instr.Li (Instr.t2, Int64.of_int k));
      emit b (Instr.Branch (Instr.Eq, Instr.t1, Instr.t2, Printf.sprintf "enc_%d" k))
    done;
    emit_leaf b ~outcome:Rejected_invalid_id ~result:err ();
    for k = 0 to n - 1 do
      leaf_for_state k
    done);
  emit_leaf b ~label:"wrong_code" ~outcome:Rejected_wrong_code ~result:err ();
  let program =
    Program.assemble ~base:Memory_layout.host_code_base (List.rev b.elements)
  in
  { call; scenario; program; leaves = List.rev b.leaves_rev }

(* {2 Concrete scenario establishment}

   Drives the real monitor through the lifecycle API until the enclave
   table matches the scenario, so a synthesised witness can be replayed
   against [handle_ecall] itself. *)

let establish config scenario =
  let machine = Machine.create config in
  let sm = Security_monitor.install machine in
  List.iteri
    (fun i target ->
      let eid =
        match Security_monitor.create_enclave sm () with
        | Ok eid -> eid
        | Error e ->
          invalid_arg
            (Printf.sprintf "Sbi_paths.establish: create %d: %s" i
               (Security_monitor.error_to_string e))
      in
      let run () =
        match Security_monitor.run_enclave sm eid with
        | Ok _ -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "Sbi_paths.establish: run %d: %s" eid
               (Security_monitor.error_to_string e))
      in
      match target with
      | Enclave.Fresh -> ()
      | Enclave.Stopped ->
        (* No registered program: the run yields immediately. *)
        run ()
      | Enclave.Exited ->
        Security_monitor.register_enclave_program sm eid
          (Program.of_instrs
             ~base:(Memory_layout.enclave_code_base eid)
             [
               Instr.Li (Instr.a7, Sbi.to_code Sbi.Exit_enclave);
               Instr.Ecall;
               Instr.Halt;
             ]);
        run ()
      | Enclave.Destroyed -> (
        run ();
        match Security_monitor.destroy_enclave sm eid with
        | Ok () -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "Sbi_paths.establish: destroy %d: %s" eid
               (Security_monitor.error_to_string e)))
      | Enclave.Running ->
        invalid_arg "Sbi_paths.establish: Running is not a resting state")
    scenario.states;
  sm

(* {2 Replay from an established scenario}

   The scenario is established once and captured; every replay restores
   the capture into the same machine and monitor, so the lifecycle (and
   the destroy memset's ten thousand log records) is driven once per
   scenario rather than once per witness. *)

type base = {
  sm : Security_monitor.t;
  machine_capture : Machine.snapshot;
  monitor_capture : Security_monitor.snapshot;
  mark : Log.mark;
  walk : Edge.walk;  (* Of the establishment log, up to [mark]. *)
}

let base config scenario =
  let sm = establish config scenario in
  let machine = Security_monitor.machine sm in
  let machine_capture = Machine.snapshot machine in
  let log = Machine.log machine in
  {
    sm;
    machine_capture;
    monitor_capture = Security_monitor.snapshot sm;
    (* The snapshot has just marked the log, so this is the prefix every
       restore returns it to; marking again copies nothing. *)
    mark = Log.mark log;
    walk = Edge.walk log;
  }

let monitor b = b.sm

let ecall_program args =
  if Array.length args <> 8 then invalid_arg "Sbi_paths.ecall_program";
  let materialise =
    List.init 8 (fun i -> Instr.Li (Instr.a0 + i, args.(i)))
  in
  Program.of_instrs ~base:Memory_layout.host_code_base
    (materialise @ [ Instr.Ecall; Instr.Halt ])

let replay b args =
  Machine.restore (Security_monitor.machine b.sm) b.machine_capture;
  Security_monitor.restore b.sm b.monitor_capture;
  Security_monitor.run_host b.sm (ecall_program args)

let edges b =
  Edge.edges
    (Edge.continue b.walk (Machine.log (Security_monitor.machine b.sm)) ~since:b.mark)
