(* Tests for the Keystone-style TEE: memory layout, enclave state
   machine, SBI encoding and the security monitor. *)

open Riscv
module Enclave = Tee.Enclave
module Sbi = Tee.Sbi
module Memory_layout = Tee.Memory_layout
module Security_monitor = Tee.Security_monitor
module Machine = Uarch.Machine
module Config = Uarch.Config
module Exec_context = Simlog.Exec_context

let word = Alcotest.testable Word.pp Int64.equal

(* {1 Memory layout} *)

let test_layout_alignment () =
  Alcotest.(check bool) "sm region napot-alignable" true
    (Word.is_aligned Memory_layout.sm_base ~alignment:Memory_layout.sm_size);
  Alcotest.(check bool) "utm aligned" true
    (Word.is_aligned Memory_layout.utm_base ~alignment:Memory_layout.utm_size);
  for i = 0 to Memory_layout.max_enclaves - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "enclave %d aligned" i)
      true
      (Word.is_aligned (Memory_layout.enclave_base i)
         ~alignment:Memory_layout.enclave_size)
  done

let test_layout_btb_aliasing_distance () =
  (* The enclave pool must differ from host code only above bit 26 so
     that equal-offset branches alias in both cores' BTBs. *)
  let diff = Int64.logxor Memory_layout.host_code_base Memory_layout.enclave_pool_base in
  Alcotest.(check word) "low 27 bits equal" 0L (Word.extract diff ~pos:0 ~len:27)

let test_region_naming () =
  Alcotest.(check string) "sm" "security-monitor"
    (Memory_layout.region_of_addr Memory_layout.sm_secret_addr);
  Alcotest.(check string) "enclave 0" "enclave-0"
    (Memory_layout.region_of_addr (Memory_layout.enclave_base 0));
  Alcotest.(check string) "enclave 2" "enclave-2"
    (Memory_layout.region_of_addr
       (Int64.add (Memory_layout.enclave_base 2) 0x100L));
  Alcotest.(check string) "utm" "utm-shared"
    (Memory_layout.region_of_addr Memory_layout.utm_base);
  Alcotest.(check string) "host" "host"
    (Memory_layout.region_of_addr Memory_layout.host_data_base)

(* {1 Enclave state machine} *)

let test_enclave_transitions () =
  let e = Enclave.create ~id:0 ~base:(Memory_layout.enclave_base 0) ~size:0x1_0000 in
  Alcotest.(check bool) "fresh" true (e.Enclave.state = Enclave.Fresh);
  Alcotest.(check bool) "fresh cannot be destroyed" false (Enclave.can_destroy e);
  (match Enclave.transition e ~to_state:Enclave.Running with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fresh -> running");
  (match Enclave.transition e ~to_state:Enclave.Destroyed with
  | Error Enclave.Running -> ()
  | _ -> Alcotest.fail "running -> destroyed must be rejected");
  (match Enclave.transition e ~to_state:Enclave.Stopped with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "running -> stopped");
  Alcotest.(check bool) "stopped can be destroyed" true (Enclave.can_destroy e);
  (match Enclave.transition e ~to_state:Enclave.Running with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stopped -> running (resume)");
  (match Enclave.transition e ~to_state:Enclave.Exited with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "running -> exited");
  (match Enclave.transition e ~to_state:Enclave.Destroyed with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "exited -> destroyed");
  (match Enclave.transition e ~to_state:Enclave.Running with
  | Error Enclave.Destroyed -> ()
  | _ -> Alcotest.fail "destroyed is terminal")

let test_enclave_contains () =
  let e = Enclave.create ~id:1 ~base:0x8801_0000L ~size:0x1_0000 in
  Alcotest.(check bool) "base inside" true (Enclave.contains e ~addr:0x8801_0000L);
  Alcotest.(check bool) "last byte inside" true (Enclave.contains e ~addr:0x8801_FFFFL);
  Alcotest.(check bool) "end outside" false (Enclave.contains e ~addr:0x8802_0000L);
  Alcotest.(check bool) "below outside" false (Enclave.contains e ~addr:0x8800_FFFFL)

(* {1 SBI} *)

let test_sbi_roundtrip () =
  List.iter
    (fun call ->
      match Sbi.of_code (Sbi.to_code call) with
      | Some c -> Alcotest.(check string) "roundtrip" (Sbi.to_string call) (Sbi.to_string c)
      | None -> Alcotest.failf "roundtrip failed for %s" (Sbi.to_string call))
    Sbi.all;
  Alcotest.(check bool) "unknown code" true (Sbi.of_code 9999L = None);
  let codes = List.map Sbi.to_code Sbi.all in
  Alcotest.(check int) "codes distinct" (List.length Sbi.all)
    (List.length (List.sort_uniq compare codes))

(* {1 Security monitor} *)

let install () =
  let machine = Machine.create Config.boom in
  let sm = Security_monitor.install machine in
  (machine, sm)

let create_exn sm =
  match Security_monitor.create_enclave sm () with
  | Ok eid -> eid
  | Error e -> Alcotest.failf "create: %s" (Security_monitor.error_to_string e)

let enclave_prog eid instrs =
  Program.of_instrs ~base:(Memory_layout.enclave_code_base eid) instrs

let test_install_state () =
  let machine, _sm = install () in
  Alcotest.(check bool) "host-supervisor context" true
    (Exec_context.equal (Machine.context machine) (Exec_context.Host Priv.Supervisor));
  (* Host PMP: SM region protected, host memory accessible. *)
  let pmp = Machine.pmp machine in
  Alcotest.(check bool) "sm protected from S" false
    (Pmp.allows pmp ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:Memory_layout.sm_secret_addr ~size:8);
  Alcotest.(check bool) "host memory open" true
    (Pmp.allows pmp ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:Memory_layout.host_data_base ~size:8)

let test_create_protects_region () =
  let machine, sm = install () in
  let eid = create_exn sm in
  let base = Memory_layout.enclave_base eid in
  let pmp = Machine.pmp machine in
  Alcotest.(check bool) "enclave region hidden from host" false
    (Pmp.allows pmp ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:base ~size:8);
  (match Security_monitor.enclave sm eid with
  | Some e -> Alcotest.(check bool) "fresh" true (e.Enclave.state = Enclave.Fresh)
  | None -> Alcotest.fail "enclave exists")

let test_run_and_stop () =
  let machine, sm = install () in
  let eid = create_exn sm in
  Security_monitor.register_enclave_program sm eid
    (enclave_prog eid [ Instr.Li (Instr.t0, 0x7EEL); Instr.Halt ]);
  (match Security_monitor.run_enclave sm eid with
  | Ok Enclave.Stopped -> ()
  | Ok s -> Alcotest.failf "unexpected state %s" (Enclave.state_to_string s)
  | Error e -> Alcotest.failf "run: %s" (Security_monitor.error_to_string e));
  (* Back in host context with wiped registers. *)
  Alcotest.(check bool) "host context restored" true
    (Exec_context.equal (Machine.context machine) (Exec_context.Host Priv.Supervisor));
  Alcotest.(check word) "enclave register state hidden" 0L (Machine.get_reg machine Instr.t0)

let test_enclave_pmp_domain () =
  let machine, sm = install () in
  let eid0 = create_exn sm in
  let _eid1 = create_exn sm in
  Security_monitor.program_enclave_pmp sm eid0;
  let pmp = Machine.pmp machine in
  let allows addr = Pmp.allows pmp ~priv:Priv.User ~kind:Pmp.Read ~addr ~size:8 in
  Alcotest.(check bool) "own region accessible" true
    (allows (Memory_layout.enclave_base eid0));
  Alcotest.(check bool) "utm accessible" true (allows Memory_layout.utm_base);
  Alcotest.(check bool) "other enclave denied" false
    (allows (Memory_layout.enclave_base 1));
  Alcotest.(check bool) "host memory denied" false (allows Memory_layout.host_data_base);
  Alcotest.(check bool) "sm denied" false (allows Memory_layout.sm_secret_addr)

let test_resume_requires_stopped () =
  let _machine, sm = install () in
  let eid = create_exn sm in
  (match Security_monitor.resume_enclave sm eid with
  | Error (Security_monitor.Invalid_state Enclave.Fresh) -> ()
  | _ -> Alcotest.fail "resume of a fresh enclave must fail");
  Security_monitor.register_enclave_program sm eid (enclave_prog eid [ Instr.Halt ]);
  (match Security_monitor.run_enclave sm eid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run: %s" (Security_monitor.error_to_string e));
  (match Security_monitor.resume_enclave sm eid with
  | Ok Enclave.Stopped -> ()
  | _ -> Alcotest.fail "resume of a stopped enclave")

let test_exit_via_sbi () =
  let _machine, sm = install () in
  let eid = create_exn sm in
  Security_monitor.register_enclave_program sm eid
    (enclave_prog eid
       [ Instr.Li (Instr.a7, Sbi.to_code Sbi.Exit_enclave); Instr.Ecall; Instr.Halt ]);
  (match Security_monitor.run_enclave sm eid with
  | Ok Enclave.Exited -> ()
  | Ok s -> Alcotest.failf "expected exited, got %s" (Enclave.state_to_string s)
  | Error e -> Alcotest.failf "run: %s" (Security_monitor.error_to_string e))

let test_destroy_lifecycle () =
  let machine, sm = install () in
  let eid = create_exn sm in
  (* Cannot destroy a fresh enclave. *)
  (match Security_monitor.destroy_enclave sm eid with
  | Error (Security_monitor.Invalid_state Enclave.Fresh) -> ()
  | _ -> Alcotest.fail "destroy of fresh must fail");
  let base = Memory_layout.enclave_base eid in
  Memory.write (Machine.memory machine) ~addr:base ~size:8 0x5EC237L;
  Security_monitor.register_enclave_program sm eid (enclave_prog eid [ Instr.Halt ]);
  (match Security_monitor.run_enclave sm eid with Ok _ -> () | Error _ -> Alcotest.fail "run");
  (match Security_monitor.destroy_enclave sm eid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "destroy: %s" (Security_monitor.error_to_string e));
  (match Security_monitor.enclave sm eid with
  | Some e -> Alcotest.(check bool) "destroyed" true (e.Enclave.state = Enclave.Destroyed)
  | None -> Alcotest.fail "enclave record kept");
  (* Region is accessible to the host again and reads as zero through the
     hierarchy. *)
  let pmp = Machine.pmp machine in
  Alcotest.(check bool) "region released" true
    (Pmp.allows pmp ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:base ~size:8);
  let r = Machine.load machine ~vaddr:base ~size:8 () in
  Alcotest.(check word) "memory cleansed" 0L r.Machine.value;
  (* Double destroy fails. *)
  (match Security_monitor.destroy_enclave sm eid with
  | Error (Security_monitor.Invalid_state Enclave.Destroyed) -> ()
  | _ -> Alcotest.fail "double destroy must fail")

let test_measurement_attestation () =
  let machine, sm = install () in
  (* Two enclaves with different initial contents measure differently. *)
  Memory.write (Machine.memory machine) ~addr:(Memory_layout.enclave_base 0) ~size:8 1L;
  let eid0 = create_exn sm in
  Memory.write (Machine.memory machine) ~addr:(Memory_layout.enclave_base 1) ~size:8 2L;
  let eid1 = create_exn sm in
  let m0 =
    match Security_monitor.attest_enclave sm eid0 with
    | Ok m -> m
    | Error _ -> Alcotest.fail "attest 0"
  in
  let m1 =
    match Security_monitor.attest_enclave sm eid1 with
    | Ok m -> m
    | Error _ -> Alcotest.fail "attest 1"
  in
  Alcotest.(check bool) "measurements differ" false (Int64.equal m0 m1);
  let m0' =
    Security_monitor.measure sm ~base:(Memory_layout.enclave_base 0)
      ~size:Memory_layout.enclave_size
  in
  Alcotest.(check word) "deterministic" m0 m0'

let test_sbi_from_host_program () =
  let machine, sm = install () in
  (* The host drives the whole lifecycle through ECALLs. *)
  let run instrs =
    ignore
      (Security_monitor.run_host sm
         (Program.of_instrs ~base:Memory_layout.host_code_base instrs))
  in
  run [ Instr.Li (Instr.a7, Sbi.to_code Sbi.Create_enclave); Instr.Ecall; Instr.Halt ];
  let eid = Int64.to_int (Machine.get_reg machine Instr.a0) in
  Alcotest.(check int) "eid returned in a0" 0 eid;
  Security_monitor.register_enclave_program sm eid (enclave_prog eid [ Instr.Halt ]);
  run
    [
      Instr.Li (Instr.a0, Int64.of_int eid);
      Instr.Li (Instr.a7, Sbi.to_code Sbi.Run_enclave);
      Instr.Ecall;
      Instr.Halt;
    ];
  (match Security_monitor.enclave sm eid with
  | Some e ->
    Alcotest.(check bool) "stopped after SBI run" true (e.Enclave.state = Enclave.Stopped)
  | None -> Alcotest.fail "enclave missing");
  run
    [
      Instr.Li (Instr.a0, Int64.of_int eid);
      Instr.Li (Instr.a7, Sbi.to_code Sbi.Destroy_enclave);
      Instr.Ecall;
      Instr.Halt;
    ];
  (match Security_monitor.enclave sm eid with
  | Some e ->
    Alcotest.(check bool) "destroyed via SBI" true (e.Enclave.state = Enclave.Destroyed)
  | None -> Alcotest.fail "enclave missing");
  (* An invalid SBI code returns the error marker. *)
  run [ Instr.Li (Instr.a7, 4242L); Instr.Ecall; Instr.Halt ];
  Alcotest.(check word) "error code" Sbi.error_code (Machine.get_reg machine Instr.a0)

let test_sbi_error_code_propagation () =
  (* Every handler error path must surface as [Sbi.error_code] in [a0]
     after the ECALL — the contract the symbolic explorer's model
     programs (lib/symex, Tee.Sbi_paths) predict per rejected leaf. *)
  let machine, sm = install () in
  let run instrs =
    ignore
      (Security_monitor.run_host sm
         (Program.of_instrs ~base:Memory_layout.host_code_base instrs))
  in
  let check_a0 name expected =
    Alcotest.(check word) name expected (Machine.get_reg machine Instr.a0)
  in
  (* Dispatch-level: unknown function code. *)
  run [ Instr.Li (Instr.a7, 31337L); Instr.Ecall; Instr.Halt ];
  check_a0 "unknown code" Sbi.error_code;
  (* Invalid enclave id on an empty table. *)
  run
    [
      Instr.Li (Instr.a0, 5L);
      Instr.Li (Instr.a7, Sbi.to_code Sbi.Run_enclave);
      Instr.Ecall;
      Instr.Halt;
    ];
  check_a0 "invalid id" Sbi.error_code;
  (* Lifecycle refusal: resuming a fresh (never-run) enclave. *)
  let eid = create_exn sm in
  run
    [
      Instr.Li (Instr.a0, Int64.of_int eid);
      Instr.Li (Instr.a7, Sbi.to_code Sbi.Resume_enclave);
      Instr.Ecall;
      Instr.Halt;
    ];
  check_a0 "lifecycle refusal" Sbi.error_code;
  (* Context refusal: exit from the host. *)
  run [ Instr.Li (Instr.a7, Sbi.to_code Sbi.Exit_enclave); Instr.Ecall; Instr.Halt ];
  check_a0 "exit from host" Sbi.error_code;
  (* The handler truncates the eid to its low 63 bits (Int64.to_int), so
     an id with bit 63 set aliases a live enclave instead of erroring —
     the missing-validation path the symbolic explorer flags as
     [a0:high-bits-ignored].  Characterise it so any future fix shows up
     here. *)
  Security_monitor.register_enclave_program sm eid
    (enclave_prog eid [ Instr.Halt ]);
  run
    [
      Instr.Li (Instr.a0, Int64.logor Int64.min_int (Int64.of_int eid));
      Instr.Li (Instr.a7, Sbi.to_code Sbi.Run_enclave);
      Instr.Ecall;
      Instr.Halt;
    ];
  Alcotest.(check bool) "bit-63 eid aliases a live enclave (not an error)"
    true
    (not (Int64.equal (Machine.get_reg machine Instr.a0) Sbi.error_code))

let test_enclave_slot_exhaustion () =
  let _machine, sm = install () in
  for _ = 1 to Memory_layout.max_enclaves do
    ignore (create_exn sm)
  done;
  match Security_monitor.create_enclave sm () with
  | Error Security_monitor.Out_of_enclave_slots -> ()
  | _ -> Alcotest.fail "slot exhaustion expected"

let test_invalid_enclave_id () =
  let _machine, sm = install () in
  (match Security_monitor.run_enclave sm 7 with
  | Error Security_monitor.Invalid_enclave_id -> ()
  | _ -> Alcotest.fail "invalid id expected");
  match Security_monitor.attest_enclave sm 7 with
  | Error Security_monitor.Invalid_enclave_id -> ()
  | _ -> Alcotest.fail "invalid id expected"

let test_no_flush_by_default () =
  (* The security monitor performs no microarchitectural cleansing unless
     a mitigation is configured — the root design decision TEESec
     probes. *)
  let machine, sm = install () in
  let eid = create_exn sm in
  Security_monitor.register_enclave_program sm eid
    (enclave_prog eid
       [
         Instr.Li (Instr.t0, 0xACCE55EDL);
         Instr.Li (Instr.t1, Memory_layout.enclave_base eid);
         Instr.sd Instr.t0 Instr.t1 0L;
         Instr.Fence;
         Instr.Halt;
       ]);
  (match Security_monitor.run_enclave sm eid with Ok _ -> () | Error _ -> Alcotest.fail "run");
  Alcotest.(check bool) "enclave line still in L1 after switch" true
    (Machine.l1_contains machine ~addr:(Memory_layout.enclave_base eid))

(* {1 PMP domain isolation properties} *)

let prop_host_domain_never_opens_protected =
  QCheck.Test.make ~name:"host PMP domain never opens SM or enclave memory" ~count:200
    QCheck.(pair (int_bound 1) (int_bound 0xFFFF))
    (fun (which, offset) ->
      let machine, sm = install () in
      let _e0 = create_exn sm in
      let _e1 = create_exn sm in
      Security_monitor.program_host_pmp sm;
      let addr =
        if which = 0 then Int64.add Memory_layout.sm_base (Int64.of_int (offset land (Memory_layout.sm_size - 8)))
        else
          Int64.add (Memory_layout.enclave_base (offset mod 2))
            (Int64.of_int (offset land (Memory_layout.enclave_size - 8)))
      in
      not
        (Pmp.allows (Machine.pmp machine) ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr
           ~size:8))

let prop_enclave_domain_confined =
  QCheck.Test.make ~name:"enclave PMP domain only opens its region and the UTM"
    ~count:200
    QCheck.(map Int64.abs int64)
    (fun addr ->
      let machine, sm = install () in
      let eid = create_exn sm in
      let _other = create_exn sm in
      Security_monitor.program_enclave_pmp sm eid;
      let addr = Int64.logor 0x8000_0000L (Int64.logand addr 0x7FFF_FFF8L) in
      let e = Option.get (Security_monitor.enclave sm eid) in
      let in_utm =
        Int64.unsigned_compare addr Memory_layout.utm_base >= 0
        && Int64.unsigned_compare addr
             (Int64.add Memory_layout.utm_base (Int64.of_int Memory_layout.utm_size))
           < 0
      in
      let allowed =
        Pmp.allows (Machine.pmp machine) ~priv:Priv.User ~kind:Pmp.Read ~addr ~size:8
      in
      allowed = (Tee.Enclave.contains e ~addr || in_utm))

let () =
  Alcotest.run "tee"
    [
      ( "memory_layout",
        [
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "btb aliasing distance" `Quick test_layout_btb_aliasing_distance;
          Alcotest.test_case "region naming" `Quick test_region_naming;
        ] );
      ( "enclave",
        [
          Alcotest.test_case "state machine" `Quick test_enclave_transitions;
          Alcotest.test_case "region membership" `Quick test_enclave_contains;
        ] );
      ("sbi", [ Alcotest.test_case "code roundtrip" `Quick test_sbi_roundtrip ]);
      ( "security_monitor",
        [
          Alcotest.test_case "install" `Quick test_install_state;
          Alcotest.test_case "create protects region" `Quick test_create_protects_region;
          Alcotest.test_case "run and stop" `Quick test_run_and_stop;
          Alcotest.test_case "enclave PMP domain" `Quick test_enclave_pmp_domain;
          Alcotest.test_case "resume requires stopped" `Quick test_resume_requires_stopped;
          Alcotest.test_case "exit via SBI" `Quick test_exit_via_sbi;
          Alcotest.test_case "destroy lifecycle" `Quick test_destroy_lifecycle;
          Alcotest.test_case "measurement and attestation" `Quick
            test_measurement_attestation;
          Alcotest.test_case "SBI from host program" `Quick test_sbi_from_host_program;
          Alcotest.test_case "SBI error-code propagation" `Quick
            test_sbi_error_code_propagation;
          Alcotest.test_case "slot exhaustion" `Quick test_enclave_slot_exhaustion;
          Alcotest.test_case "invalid enclave id" `Quick test_invalid_enclave_id;
          Alcotest.test_case "no flush by default" `Quick test_no_flush_by_default;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_host_domain_never_opens_protected;
          QCheck_alcotest.to_alcotest prop_enclave_domain_confined;
        ] );
    ]
