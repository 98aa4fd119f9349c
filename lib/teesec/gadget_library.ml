open! Import

(* {1 Shared construction helpers} *)

let width_of_bytes = function
  | 1 -> Instr.Byte
  | 2 -> Instr.Half
  | 4 -> Instr.Word_
  | 8 -> Instr.Double
  | n -> invalid_arg (Printf.sprintf "width_of_bytes: %d" n)

let host_program instrs = Program.of_instrs ~base:Memory_layout.host_code_base instrs

let host_run (env : Env.t) instrs =
  let prog = host_program instrs in
  Env.record_program env ~label:"host-S" prog;
  ignore (Security_monitor.run_host env.sm prog)

let host_run_user (env : Env.t) instrs =
  let prog = host_program instrs in
  Env.record_program env ~label:"host-U" prog;
  ignore (Security_monitor.run_host_user env.sm prog)

(* Register [instrs] as the enclave's program and run it: a fresh enclave
   is run, a stopped one resumed. *)
let enclave_run (env : Env.t) eid instrs =
  let prog = Program.of_instrs ~base:(Memory_layout.enclave_code_base eid) instrs in
  Env.record_program env ~label:(Printf.sprintf "enclave-%d" eid) prog;
  Security_monitor.register_enclave_program env.sm eid prog;
  let result =
    match Security_monitor.enclave env.sm eid with
    | Some e when e.Enclave.state = Enclave.Fresh -> Security_monitor.run_enclave env.sm eid
    | Some _ -> Security_monitor.resume_enclave env.sm eid
    | None -> Error Security_monitor.Invalid_enclave_id
  in
  match result with
  | Ok _ -> ()
  | Error e ->
    invalid_arg
      (Printf.sprintf "enclave_run(%d): %s" eid (Security_monitor.error_to_string e))

let enclave_run_elements (env : Env.t) eid elements =
  let prog = Program.assemble ~base:(Memory_layout.enclave_code_base eid) elements in
  Env.record_program env ~label:(Printf.sprintf "enclave-%d" eid) prog;
  Security_monitor.register_enclave_program env.sm eid prog;
  match
    (match Security_monitor.enclave env.sm eid with
    | Some e when e.Enclave.state = Enclave.Fresh -> Security_monitor.run_enclave env.sm eid
    | Some _ -> Security_monitor.resume_enclave env.sm eid
    | None -> Error Security_monitor.Invalid_enclave_id)
  with
  | Ok _ -> ()
  | Error e ->
    invalid_arg
      (Printf.sprintf "enclave_run(%d): %s" eid (Security_monitor.error_to_string e))

(* Store-secret instruction sequence for one 64-byte line. *)
let fill_line_instrs (env : Env.t) ~line_addr ~owner =
  let secrets =
    Secret.register_line env.tracker ~seed:env.params.Params.seed ~line_addr ~owner
  in
  List.concat_map
    (fun (s : Secret.seeded) ->
      [ Instr.Li (Instr.t0, s.value); Instr.Li (Instr.t1, s.addr); Instr.sd Instr.t0 Instr.t1 0L ])
    secrets

(* The boundary line: the very first line of the victim's region, whose
   host-side neighbour triggers the D1 prefetch. *)
let boundary_line (env : Env.t) = Memory_layout.enclave_base (Env.victim_exn env)

(* The tail line: the last line of the region.  The destroy memset sweeps
   the region in ascending order, so the stale data its final refills
   leave in the LFB (D3) comes from here. *)
let tail_line (env : Env.t) =
  Int64.add
    (Memory_layout.enclave_base (Env.victim_exn env))
    (Int64.of_int (Memory_layout.enclave_size - Memory.line_bytes))

let sbi_call_instrs call ~arg =
  [
    Instr.Li (Instr.a0, arg);
    Instr.Li (Instr.a7, Sbi.to_code call);
    Instr.Ecall;
    Instr.Halt;
  ]

let emit_destroy (env : Env.t) =
  host_run env (sbi_call_instrs Sbi.Destroy_enclave ~arg:(Int64.of_int (Env.victim_exn env)))

(* A small enclave workload: memory traffic plus branches, enough to
   perturb every modelled performance counter. *)
let workload_elements (env : Env.t) =
  let line = Env.victim_secret_line env in
  [
    Program.Instr (Instr.Li (Instr.t1, line));
    Program.Instr (Instr.ld Instr.t0 Instr.t1 0L);
    Program.Instr (Instr.ld Instr.t2 Instr.t1 8L);
    Program.Instr (Instr.Alu (Instr.Add, Instr.t0, Instr.t0, Instr.t2));
    Program.Instr (Instr.sd Instr.t0 Instr.t1 16L);
    Program.Instr (Instr.Branch (Instr.Eq, 0, 0, "skip"));
    Program.Instr Instr.Nop;
    Program.Label "skip";
    Program.Instr (Instr.ld Instr.t2 Instr.t1 24L);
    Program.Instr Instr.Fence;
    Program.Instr Instr.Halt;
  ]

let btb_branch_index ~variant = 2 + (variant mod 4)

(* Straight-line program with one conditional branch at a fixed
   instruction index; prime, probe and enclave workload all use the same
   index so the branch PCs alias across the host/enclave boundary. *)
let branch_elements ~index ~taken ~probe_cycles =
  let pad = List.init (index - if probe_cycles then 1 else 0) (fun _ -> Program.Instr Instr.Nop) in
  let prefix =
    if probe_cycles then [ Program.Instr (Instr.Csrr (Instr.a2, Csr.Cycle)) ] else []
  in
  let branch =
    if taken then Instr.Branch (Instr.Eq, 0, 0, "target")
    else Instr.Branch (Instr.Ne, 0, 0, "target")
  in
  prefix @ pad
  @ [
      Program.Instr branch;
      Program.Instr Instr.Nop;
      Program.Label "target";
    ]
  @ (if probe_cycles then
       [
         Program.Instr (Instr.Csrr (Instr.a3, Csr.Cycle));
         Program.Instr (Instr.Alu (Instr.Sub, Instr.a4, Instr.a3, Instr.a2));
       ]
     else [])
  @ [ Program.Instr Instr.Halt ]

(* Virtual address used by the PTW gadgets ([vpn2] selects which word
   of the hijacked root-table line the walk reads). *)
let ptw_probe_vaddr ~vpn2 =
  assert (vpn2 >= 0 && vpn2 < 512);
  Int64.shift_left (Int64.of_int vpn2) 30

(* Access-gadget core: load [addr] with the parameterised width and feed
   the result to a dependent instruction. *)
let access_load_instrs (env : Env.t) ~addr =
  let width = width_of_bytes env.params.Params.width in
  [
    Instr.Li (Instr.a4, addr);
    Instr.Load { width; rd = Instr.a5; base = Instr.a4; offset = 0L };
    Instr.Alu (Instr.Xor, Instr.a6, Instr.a5, Instr.a5);
    Instr.Halt;
  ]

(* Register the sub-word transient values a narrow or misaligned access
   would forward, so the checker recognises them. *)
let register_derived_secrets (env : Env.t) ~addr ~size ~owner =
  let granule = Word.align_down addr ~alignment:8 in
  let seed = env.params.Params.seed in
  let offset = Int64.to_int (Int64.sub addr granule) in
  if offset + size <= 8 then begin
    if size < 8 then
      let full = Secret.value_for ~seed ~addr:granule in
      Secret.register_value env.tracker
        ~value:(Word.extract full ~pos:(offset * 8) ~len:(size * 8))
        ~addr ~owner
  end
  else begin
    (* Straddling access: two sub-accesses, both partial. *)
    let size1 = 8 - offset in
    let full1 = Secret.value_for ~seed ~addr:granule in
    Secret.register_value env.tracker
      ~value:(Word.extract full1 ~pos:(offset * 8) ~len:(size1 * 8))
      ~addr ~owner;
    let next = Int64.add granule 8L in
    let full2 = Secret.value_for ~seed ~addr:next in
    Secret.register_value env.tracker
      ~value:(Word.extract full2 ~pos:0 ~len:((size - size1) * 8))
      ~addr:next ~owner
  end

let victim_owner env = Secret.Enclave_owner (Env.victim_exn env)

(* {1 Setup gadgets} *)

let create_enclave =
  {
    Gadget.name = "Create_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "allocate and measure a fresh victim enclave (SBI create)";
    pre = (fun m -> m.Exec_model.victim_state = None);
    post = (fun m -> m.Exec_model.victim_state <- Some Enclave.Fresh);
    emit =
      (fun env ->
        match Security_monitor.create_enclave env.Env.sm () with
        | Ok eid -> env.Env.victim <- Some eid
        | Error e -> invalid_arg (Security_monitor.error_to_string e));
  }

let create_attacker_enclave =
  {
    Gadget.name = "Create_Attacker_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "allocate a second (attacker) enclave for cross-enclave tests";
    pre =
      (fun m -> m.Exec_model.victim_state <> None && not m.Exec_model.attacker_enclave);
    post = (fun m -> m.Exec_model.attacker_enclave <- true);
    emit =
      (fun env ->
        match Security_monitor.create_enclave env.Env.sm () with
        | Ok eid -> env.Env.attacker <- Some eid
        | Error e -> invalid_arg (Security_monitor.error_to_string e));
  }

let runnable = function
  | Some Enclave.Fresh | Some Enclave.Stopped -> true
  | Some (Enclave.Running | Enclave.Exited | Enclave.Destroyed) | None -> false

let exe_enclave =
  {
    Gadget.name = "Exe_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "run the victim enclave with a representative workload";
    pre = (fun m -> runnable m.Exec_model.victim_state);
    post =
      (fun m ->
        m.Exec_model.victim_state <- Some Enclave.Stopped;
        m.Exec_model.enclave_did_work <- true);
    emit =
      (fun env ->
        enclave_run_elements env (Env.victim_exn env) (workload_elements env));
  }

let stop_enclave =
  {
    Gadget.name = "Stop_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "host SBI request acknowledging the enclave stop";
    pre = (fun m -> m.Exec_model.victim_state = Some Enclave.Stopped);
    post = (fun _ -> ());
    emit =
      (fun env ->
        host_run env
          (sbi_call_instrs Sbi.Stop_enclave ~arg:(Int64.of_int (Env.victim_exn env))));
  }

let resume_enclave =
  {
    Gadget.name = "Resume_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "resume a stopped enclave with an idle program";
    pre = (fun m -> m.Exec_model.victim_state = Some Enclave.Stopped);
    post = (fun m -> m.Exec_model.victim_state <- Some Enclave.Stopped);
    emit =
      (fun env -> enclave_run env (Env.victim_exn env) [ Instr.Nop; Instr.Halt ]);
  }

let exit_enclave =
  {
    Gadget.name = "Exit_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "enclave-side SBI exit";
    pre = (fun m -> runnable m.Exec_model.victim_state);
    post = (fun m -> m.Exec_model.victim_state <- Some Enclave.Exited);
    emit =
      (fun env ->
        enclave_run env (Env.victim_exn env)
          [ Instr.Li (Instr.a7, Sbi.to_code Sbi.Exit_enclave); Instr.Ecall; Instr.Halt ]);
  }

let destroy_enclave =
  {
    Gadget.name = "Destroy_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "host SBI destroy: state check, memset, PMP release";
    pre =
      (fun m ->
        match m.Exec_model.victim_state with
        | Some Enclave.Stopped | Some Enclave.Exited -> true
        | Some (Enclave.Fresh | Enclave.Running | Enclave.Destroyed) | None -> false);
    post = (fun m -> m.Exec_model.victim_state <- Some Enclave.Destroyed);
    emit = emit_destroy;
  }

let attest_enclave =
  {
    Gadget.name = "Attest_Enclave";
    param_deps = [];
    kind = Gadget.Setup;
    description = "host SBI attestation readout";
    pre = (fun m -> m.Exec_model.victim_state <> None);
    post = (fun _ -> ());
    emit =
      (fun env ->
        host_run env
          (sbi_call_instrs Sbi.Attest_enclave ~arg:(Int64.of_int (Env.victim_exn env))));
  }

(* {1 Helper gadgets} *)

let fill_enc_mem =
  {
    Gadget.name = "Fill_Enc_Mem";
    param_deps = [ Gadget.Dep_seed ];
    kind = Gadget.Helper;
    description =
      "enclave seeds address-hash secrets into its secret and boundary lines, then drains";
    pre = (fun m -> runnable m.Exec_model.victim_state);
    post =
      (fun m ->
        m.Exec_model.victim_state <- Some Enclave.Stopped;
        m.Exec_model.enclave_did_work <- true;
        let s = m.Exec_model.secret in
        s.Exec_model.in_l1 <- true;
        s.Exec_model.in_l2 <- false;
        s.Exec_model.in_mem <- false;
        s.Exec_model.in_store_buffer <- false);
    emit =
      (fun env ->
        let owner = victim_owner env in
        let instrs =
          fill_line_instrs env ~line_addr:(Env.victim_secret_line env) ~owner
          @ fill_line_instrs env ~line_addr:(boundary_line env) ~owner
          @ fill_line_instrs env ~line_addr:(tail_line env) ~owner
          @ [ Instr.Fence; Instr.Halt ]
        in
        enclave_run env (Env.victim_exn env) instrs);
  }

let fill_enc_mem_nodrain =
  {
    Gadget.name = "Fill_Enc_Mem_NoDrain";
    param_deps = [ Gadget.Dep_seed ];
    kind = Gadget.Helper;
    description = "enclave stores secrets and yields without draining the store buffer";
    pre = (fun m -> runnable m.Exec_model.victim_state);
    post =
      (fun m ->
        m.Exec_model.victim_state <- Some Enclave.Stopped;
        m.Exec_model.enclave_did_work <- true;
        m.Exec_model.secret.Exec_model.in_store_buffer <- true);
    emit =
      (fun env ->
        let instrs =
          fill_line_instrs env ~line_addr:(Env.victim_secret_line env)
            ~owner:(victim_owner env)
          @ [ Instr.Halt ]
        in
        enclave_run env (Env.victim_exn env) instrs);
  }

let enc_secret_to_l1 =
  {
    Gadget.name = "Enc_Mem_To_L1";
    param_deps = [];
    kind = Gadget.Helper;
    description = "enclave loads its secret line to warm the L1D";
    pre =
      (fun m ->
        runnable m.Exec_model.victim_state
        && (m.Exec_model.secret.Exec_model.in_l2 || m.Exec_model.secret.Exec_model.in_mem));
    post =
      (fun m ->
        m.Exec_model.victim_state <- Some Enclave.Stopped;
        m.Exec_model.secret.Exec_model.in_l1 <- true);
    emit =
      (fun env ->
        let line = Env.victim_secret_line env in
        let loads =
          List.concat_map
            (fun i ->
              [
                Instr.Li (Instr.t1, Int64.add line (Int64.of_int (i * 8)));
                Instr.ld Instr.t0 Instr.t1 0L;
              ])
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        enclave_run env (Env.victim_exn env) (loads @ [ Instr.Halt ]));
  }

let evict_enc_l1 =
  {
    Gadget.name = "Evict_Enc_L1";
    param_deps = [];
    kind = Gadget.Helper;
    description = "evict the secret lines from the L1D (write-back to L2 and memory)";
    pre = (fun m -> m.Exec_model.secret.Exec_model.in_l1);
    post =
      (fun m ->
        let s = m.Exec_model.secret in
        s.Exec_model.in_l1 <- false;
        s.Exec_model.in_l2 <- true;
        s.Exec_model.in_mem <- true);
    emit =
      (fun env ->
        Machine.evict_line env.Env.machine ~addr:(Env.victim_secret_line env);
        Machine.evict_line env.Env.machine ~addr:(boundary_line env);
        Machine.evict_line env.Env.machine ~addr:(tail_line env));
  }

let evict_enc_l2 =
  {
    Gadget.name = "Evict_Enc_L2";
    param_deps = [];
    kind = Gadget.Helper;
    description = "drop the secret lines from the L2, leaving them only in memory";
    pre = (fun m -> m.Exec_model.secret.Exec_model.in_l2);
    post =
      (fun m ->
        let s = m.Exec_model.secret in
        s.Exec_model.in_l2 <- false;
        s.Exec_model.in_mem <- true);
    emit =
      (fun env ->
        Machine.evict_line_l2 env.Env.machine ~addr:(Env.victim_secret_line env);
        Machine.evict_line_l2 env.Env.machine ~addr:(boundary_line env);
        Machine.evict_line_l2 env.Env.machine ~addr:(tail_line env));
  }

let seed_sm_secret =
  {
    Gadget.name = "Seed_SM_Secret";
    param_deps = [ Gadget.Dep_seed ];
    kind = Gadget.Helper;
    description = "seed an address-hash secret line inside security-monitor memory";
    pre = (fun _ -> true);
    post = (fun _ -> ());
    emit =
      (fun env ->
        let mem = Machine.memory env.Env.machine in
        let seeded =
          Secret.register_line env.Env.tracker ~seed:env.Env.params.Params.seed
            ~line_addr:Memory_layout.sm_secret_addr ~owner:Secret.Sm_owner
        in
        List.iter
          (fun (s : Secret.seeded) -> Memory.write mem ~addr:s.addr ~size:8 s.value)
          seeded);
  }

let touch_sm_secret =
  {
    Gadget.name = "Touch_SM_Secret";
    param_deps = [];
    kind = Gadget.Helper;
    description = "the monitor reads its secret, pulling it into the L1D";
    pre = (fun _ -> true);
    post = (fun m -> m.Exec_model.sm_secret_in_l1 <- true);
    emit =
      (fun env ->
        (* The monitor's read happens behind a real privilege boundary:
           mitigation flushes apply on the way in and out. *)
        let m = env.Env.machine in
        let prev = Machine.context m in
        Machine.switch_context m ~to_ctx:Exec_context.Monitor;
        for i = 0 to 7 do
          ignore
            (Machine.load m
               ~vaddr:(Int64.add Memory_layout.sm_secret_addr (Int64.of_int (i * 8)))
               ~size:8 ())
        done;
        Machine.switch_context m ~to_ctx:prev);
  }

let seed_host_secret =
  {
    Gadget.name = "Seed_Host_Secret";
    param_deps = [ Gadget.Dep_seed ];
    kind = Gadget.Helper;
    description = "host stores its own secret data, leaving it hot in the L1D";
    pre = (fun _ -> true);
    post = (fun m -> m.Exec_model.host_secret_in_l1 <- true);
    emit =
      (fun env ->
        let seeded =
          Secret.register_line env.Env.tracker ~seed:env.Env.params.Params.seed
            ~line_addr:Memory_layout.host_data_base ~owner:Secret.Host_owner
        in
        let instrs =
          List.concat_map
            (fun (s : Secret.seeded) ->
              [
                Instr.Li (Instr.t0, s.value);
                Instr.Li (Instr.t1, s.addr);
                Instr.sd Instr.t0 Instr.t1 0L;
              ])
            seeded
          @ [ Instr.Fence; Instr.Halt ]
        in
        host_run env instrs);
  }

(* The legitimate host address space: a few pages mapped at 1 GiB. *)
let legit_vaddr_base = 0x4000_0000L

let build_host_page_tables =
  {
    Gadget.name = "Build_Host_Page_Tables";
    param_deps = [];
    kind = Gadget.Helper;
    description = "construct legitimate sv39 page tables for the host";
    pre = (fun _ -> true);
    post = (fun m -> m.Exec_model.host_page_tables <- true);
    emit =
      (fun env ->
        let mem = Machine.memory env.Env.machine in
        let b =
          Page_table.create_builder mem
            ~table_region:Memory_layout.host_page_table_base ()
        in
        Page_table.map_range b ~vaddr:legit_vaddr_base
          ~paddr:Memory_layout.host_data_base ~size:16384L
          ~perm:Page_table.supervisor_rw);
  }

let hpc_csrs = List.map (fun n -> Csr.Hpmcounter n) [ 3; 4; 5; 6; 7; 8 ]

let prime_hpcs =
  {
    Gadget.name = "Prime_HPCs";
    param_deps = [];
    kind = Gadget.Helper;
    description = "host records a performance-counter baseline before enclave entry";
    pre = (fun _ -> true);
    post = (fun m -> m.Exec_model.hpc_primed <- true);
    emit =
      (fun env ->
        let csr = Machine.csr env.Env.machine in
        env.Env.hpc_baseline <-
          List.map (fun e -> (Hpc.counter_index e, Hpc.read csr e)) Hpc.all_events;
        let reads =
          List.mapi (fun i id -> Instr.Csrr (Instr.a1 + (i mod 5), id)) hpc_csrs
        in
        host_run env (reads @ [ Instr.Halt ]));
  }

let prime_ubtb =
  {
    Gadget.name = "Prime_uBTB";
    param_deps = [ Gadget.Dep_variant ];
    kind = Gadget.Helper;
    description = "host executes a taken branch to prime the aliasing uBTB entry";
    pre = (fun _ -> true);
    post = (fun m -> m.Exec_model.btb_primed <- true);
    emit =
      (fun env ->
        let index = btb_branch_index ~variant:env.Env.params.Params.variant in
        let prog =
          Program.assemble ~base:Memory_layout.host_code_base
            (branch_elements ~index ~taken:true ~probe_cycles:false)
        in
        Env.record_program env ~label:"host-S" prog;
        ignore (Security_monitor.run_host env.Env.sm prog));
  }

let enclave_branch_workload =
  {
    Gadget.name = "Enclave_Branch_Workload";
    param_deps = [ Gadget.Dep_variant ];
    kind = Gadget.Helper;
    description =
      "enclave executes a secret-dependent conditional branch at the aliasing PC";
    pre = (fun m -> runnable m.Exec_model.victim_state);
    post =
      (fun m ->
        m.Exec_model.victim_state <- Some Enclave.Stopped;
        m.Exec_model.enclave_did_work <- true);
    emit =
      (fun env ->
        let variant = env.Env.params.Params.variant in
        let index = btb_branch_index ~variant in
        let taken = variant / 4 mod 2 = 0 in
        enclave_run_elements env (Env.victim_exn env)
          (branch_elements ~index ~taken ~probe_cycles:false));
  }

(* {1 Access gadgets} *)

let make_access path ~pre ~emit =
  {
    Gadget.name = Access_path.to_string path;
    param_deps =
      [ Gadget.Dep_offset; Gadget.Dep_width; Gadget.Dep_variant; Gadget.Dep_seed ];
    kind = Gadget.Access path;
    description = Access_path.description path;
    pre;
    post = (fun _ -> ());
    emit;
  }

let secret_ready m =
  let s = m.Exec_model.secret in
  s.Exec_model.in_l1 || s.Exec_model.in_l2 || s.Exec_model.in_mem
  || s.Exec_model.in_store_buffer

(* Host (or user) access to the victim's protected secret, with
   width/offset from the parameters and lifecycle permutations selected
   by the variant. *)
let emit_host_access (env : Env.t) =
  let addr = Env.secret_addr env in
  register_derived_secrets env ~addr ~size:env.params.Params.width
    ~owner:(victim_owner env);
  let instrs = access_load_instrs env ~addr in
  match env.params.Params.variant with
  | 1 ->
    (* Warm the LFB with a benign host line first. *)
    host_run env
      ([
         Instr.Li (Instr.a3, Int64.add Memory_layout.host_data_base 0x1000L);
         Instr.ld Instr.a2 Instr.a3 0L;
       ]
      @ instrs)
  | 2 -> host_run_user env instrs
  | 3 ->
    (* Stop/resume cycle before the access. *)
    enclave_run env (Env.victim_exn env) [ Instr.Nop; Instr.Halt ];
    host_run env instrs
  | _ -> host_run env instrs

let exp_acc_enc_l1 =
  make_access Access_path.Exp_acc_enc_l1
    ~pre:(fun m -> m.Exec_model.secret.Exec_model.in_l1)
    ~emit:emit_host_access

let exp_acc_enc_l2 =
  make_access Access_path.Exp_acc_enc_l2
    ~pre:(fun m ->
      m.Exec_model.secret.Exec_model.in_l2
      && not m.Exec_model.secret.Exec_model.in_l1)
    ~emit:emit_host_access

let exp_acc_enc_mem =
  make_access Access_path.Exp_acc_enc_mem
    ~pre:(fun m ->
      m.Exec_model.secret.Exec_model.in_mem
      && (not m.Exec_model.secret.Exec_model.in_l1)
      && not m.Exec_model.secret.Exec_model.in_l2)
    ~emit:emit_host_access

let exp_acc_enc_stb =
  make_access Access_path.Exp_acc_enc_stb
    ~pre:(fun m -> m.Exec_model.secret.Exec_model.in_store_buffer)
    ~emit:(fun env ->
      let addr = Env.secret_addr env in
      register_derived_secrets env ~addr ~size:env.params.Params.width
        ~owner:(victim_owner env);
      let distractor =
        if env.params.Params.variant = 1 then
          [
            Instr.Li (Instr.t0, 0x4141L);
            Instr.Li (Instr.t1, Memory_layout.host_data_base);
            Instr.sd Instr.t0 Instr.t1 0L;
          ]
        else []
      in
      host_run env (distractor @ access_load_instrs env ~addr))

let exp_acc_enc_misaligned =
  make_access Access_path.Exp_acc_enc_misaligned
    ~pre:(fun m -> m.Exec_model.secret.Exec_model.in_l1)
    ~emit:(fun env ->
      (* offset parameter is a non-aligned byte offset here. *)
      let addr =
        Int64.add (Env.victim_secret_line env) (Int64.of_int env.params.Params.offset)
      in
      register_derived_secrets env ~addr ~size:env.params.Params.width
        ~owner:(victim_owner env);
      host_run env (access_load_instrs env ~addr))

let exp_acc_sm =
  make_access Access_path.Exp_acc_sm
    ~pre:(fun m -> m.Exec_model.sm_secret_in_l1)
    ~emit:(fun env ->
      let addr =
        Int64.add Memory_layout.sm_secret_addr (Int64.of_int env.params.Params.offset)
      in
      register_derived_secrets env ~addr ~size:env.params.Params.width
        ~owner:Secret.Sm_owner;
      host_run env (access_load_instrs env ~addr))

let exp_acc_cross_enclave =
  make_access Access_path.Exp_acc_cross_enclave
    ~pre:(fun m ->
      m.Exec_model.attacker_enclave && m.Exec_model.secret.Exec_model.in_l1)
    ~emit:(fun env ->
      let addr = Env.secret_addr env in
      register_derived_secrets env ~addr ~size:env.params.Params.width
        ~owner:(victim_owner env);
      enclave_run env (Env.attacker_exn env) (access_load_instrs env ~addr))

let exp_acc_host_from_enclave =
  make_access Access_path.Exp_acc_host_from_enclave
    ~pre:(fun m ->
      m.Exec_model.host_secret_in_l1 && runnable m.Exec_model.victim_state)
    ~emit:(fun env ->
      let addr =
        Int64.add Memory_layout.host_data_base (Int64.of_int env.params.Params.offset)
      in
      register_derived_secrets env ~addr ~size:env.params.Params.width
        ~owner:Secret.Host_owner;
      enclave_run env (Env.victim_exn env) (access_load_instrs env ~addr))

let exp_store_enc =
  make_access Access_path.Exp_store_enc
    ~pre:(fun m -> secret_ready m)
    ~emit:(fun env ->
      let addr = Env.secret_addr env in
      let width = width_of_bytes env.params.Params.width in
      host_run env
        [
          Instr.Li (Instr.t0, 0x4242_4242L);
          Instr.Li (Instr.a4, addr);
          Instr.Store { width; rs = Instr.t0; base = Instr.a4; offset = 0L };
          Instr.Fence;
          Instr.Halt;
        ])

let imp_acc_pref =
  make_access Access_path.Imp_acc_pref
    ~pre:(fun m ->
      m.Exec_model.secret.Exec_model.in_l2 || m.Exec_model.secret.Exec_model.in_mem)
    ~emit:(fun env ->
      (* Load inside the last accessible line(s) before the enclave
         region; distance 1 puts the prefetched next line inside the
         enclave (leak), distance 2 keeps it in host memory (benign). *)
      let distance = 1 + (env.params.Params.variant mod 2) in
      let line =
        Int64.sub (boundary_line env) (Int64.of_int (distance * Memory.line_bytes))
      in
      let addr = Int64.add line (Int64.of_int env.params.Params.offset) in
      host_run env (access_load_instrs env ~addr))

let imp_acc_ptw_root =
  make_access Access_path.Imp_acc_ptw_root
    ~pre:(fun m ->
      let enclave_root = m.Exec_model.secret.Exec_model.in_l2 || m.Exec_model.secret.Exec_model.in_mem in
      enclave_root (* the SM-root variant seeds its own line *))
    ~emit:(fun env ->
      let root =
        if env.params.Params.variant = 1 then Memory_layout.sm_secret_addr
        else Env.victim_secret_line env
      in
      let vpn2 = env.params.Params.offset / 8 in
      let satp_val = Page_table.satp_of_root root in
      host_run env
        [
          Instr.Li (Instr.t1, satp_val);
          Instr.Csrw (Csr.Satp, Instr.t1);
          Instr.Li (Instr.a4, ptw_probe_vaddr ~vpn2);
          Instr.ld Instr.a5 Instr.a4 0L;
          Instr.Csrw (Csr.Satp, 0);
          Instr.Halt;
        ])

let imp_acc_ptw_legit =
  make_access Access_path.Imp_acc_ptw_legit
    ~pre:(fun m -> m.Exec_model.host_page_tables)
    ~emit:(fun env ->
      let satp_val = Page_table.satp_of_root Memory_layout.host_page_table_base in
      let vaddr =
        Int64.add legit_vaddr_base (Int64.of_int env.params.Params.offset)
      in
      host_run env
        [
          Instr.Li (Instr.t1, satp_val);
          Instr.Csrw (Csr.Satp, Instr.t1);
          Instr.Li (Instr.a4, vaddr);
          Instr.ld Instr.a5 Instr.a4 0L;
          Instr.Csrw (Csr.Satp, 0);
          Instr.Halt;
        ])

let imp_acc_destroy_memset =
  make_access Access_path.Imp_acc_destroy_memset
    ~pre:(fun m ->
      (match m.Exec_model.victim_state with
      | Some Enclave.Stopped | Some Enclave.Exited -> true
      | Some (Enclave.Fresh | Enclave.Running | Enclave.Destroyed) | None -> false)
      && (m.Exec_model.secret.Exec_model.in_l2 || m.Exec_model.secret.Exec_model.in_mem))
    ~emit:emit_destroy

let meta_hpc =
  make_access Access_path.Meta_hpc
    ~pre:(fun m -> m.Exec_model.hpc_primed && m.Exec_model.enclave_did_work)
    ~emit:(fun env ->
      let subset =
        match env.Env.params.Params.variant mod 3 with
        | 0 -> hpc_csrs
        | 1 -> [ Csr.Hpmcounter 3; Csr.Hpmcounter 4 ]
        | _ -> [ Csr.Hpmcounter 6; Csr.Hpmcounter 7; Csr.Hpmcounter 8 ]
      in
      let reads =
        List.mapi (fun i id -> Instr.Csrr (Instr.a1 + (i mod 5), id)) subset
      in
      let run = if env.Env.params.Params.variant >= 3 then host_run_user else host_run in
      run env (reads @ [ Instr.Halt ]))

let meta_btb =
  make_access Access_path.Meta_btb
    ~pre:(fun m -> m.Exec_model.btb_primed && m.Exec_model.enclave_did_work)
    ~emit:(fun env ->
      let index = btb_branch_index ~variant:env.Env.params.Params.variant in
      let prog =
        Program.assemble ~base:Memory_layout.host_code_base
          (branch_elements ~index ~taken:false ~probe_cycles:true)
      in
      Env.record_program env ~label:"host-S" prog;
      ignore (Security_monitor.run_host env.Env.sm prog))

let access_gadget = function
  | Access_path.Exp_acc_enc_l1 -> exp_acc_enc_l1
  | Access_path.Exp_acc_enc_l2 -> exp_acc_enc_l2
  | Access_path.Exp_acc_enc_mem -> exp_acc_enc_mem
  | Access_path.Exp_acc_enc_stb -> exp_acc_enc_stb
  | Access_path.Exp_acc_enc_misaligned -> exp_acc_enc_misaligned
  | Access_path.Exp_acc_sm -> exp_acc_sm
  | Access_path.Exp_acc_cross_enclave -> exp_acc_cross_enclave
  | Access_path.Exp_acc_host_from_enclave -> exp_acc_host_from_enclave
  | Access_path.Exp_store_enc -> exp_store_enc
  | Access_path.Imp_acc_pref -> imp_acc_pref
  | Access_path.Imp_acc_ptw_root -> imp_acc_ptw_root
  | Access_path.Imp_acc_ptw_legit -> imp_acc_ptw_legit
  | Access_path.Imp_acc_destroy_memset -> imp_acc_destroy_memset
  | Access_path.Meta_hpc -> meta_hpc
  | Access_path.Meta_btb -> meta_btb

let setup_gadgets =
  [
    create_enclave;
    create_attacker_enclave;
    exe_enclave;
    stop_enclave;
    resume_enclave;
    exit_enclave;
    destroy_enclave;
    attest_enclave;
  ]

let helper_gadgets =
  [
    fill_enc_mem;
    fill_enc_mem_nodrain;
    enc_secret_to_l1;
    evict_enc_l1;
    evict_enc_l2;
    seed_sm_secret;
    touch_sm_secret;
    seed_host_secret;
    build_host_page_tables;
    prime_hpcs;
    prime_ubtb;
    enclave_branch_workload;
  ]

let access_gadgets = List.map access_gadget Access_path.all
