open! Import

type error =
  | Invalid_enclave_id
  | Invalid_state of Enclave.state
  | Out_of_enclave_slots

let error_to_string = function
  | Invalid_enclave_id -> "invalid enclave id"
  | Invalid_state s -> Printf.sprintf "invalid enclave state: %s" (Enclave.state_to_string s)
  | Out_of_enclave_slots -> "out of enclave slots"

type t = {
  machine : Machine.t;
  mutable enclaves : Enclave.t list;  (* creation order *)
  programs : (int, Program.t) Hashtbl.t;
  mutable host_reg_bank : Word.t array option;
}

(* Raised by the SBI handler when the running enclave requests exit. *)
exception Enclave_exit_requested of int

(* {2 Snapshot/restore}

   Captures the monitor's own mutable state; the machine it drives is
   snapshotted separately by [Machine.snapshot].  The installed ecall
   handler closes over the monitor record itself, so restoring fields in
   place keeps the binding valid — no reinstall is needed. *)

type snapshot = {
  snap_enclaves : Enclave.t list;
  snap_programs : (int, Program.t) Hashtbl.t;
  snap_host_reg_bank : Word.t array option;
}

let snapshot t =
  {
    snap_enclaves = List.map Enclave.copy t.enclaves;
    snap_programs = Hashtbl.copy t.programs;
    snap_host_reg_bank = Option.map Array.copy t.host_reg_bank;
  }

let restore t s =
  (* Enclave records are mutable: copy again on every restore so two
     runs restored from the same snapshot never share them. *)
  t.enclaves <- List.map Enclave.copy s.snap_enclaves;
  Hashtbl.reset t.programs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.programs k v) s.snap_programs;
  t.host_reg_bank <- Option.map Array.copy s.snap_host_reg_bank

let machine t = t.machine

let enclave t eid =
  List.find_opt (fun (e : Enclave.t) -> e.id = eid) t.enclaves

let live_enclaves t =
  List.filter (fun (e : Enclave.t) -> e.state <> Enclave.Destroyed) t.enclaves

(* {2 PMP domain programming}

   Entries are searched in ascending priority, so protection carve-outs
   come first and the host's background allow-all entry last. *)

let sm_region_entry =
  Pmp.napot_entry ~base:Memory_layout.sm_base ~size:Memory_layout.sm_size
    ~perm:Pmp.no_access ~locked:false

let background_entry =
  Pmp.napot_entry ~base:Memory_layout.ram_base
    ~size:(Int64.to_int Memory_layout.ram_size)
    ~perm:Pmp.full_access ~locked:false

let enclave_region_entry (e : Enclave.t) ~perm =
  Pmp.napot_entry ~base:e.base ~size:e.size ~perm ~locked:false

let program_host_pmp t =
  let pmp = Machine.pmp t.machine in
  Pmp.clear pmp;
  Pmp.set pmp 0 sm_region_entry;
  List.iteri
    (fun i e -> Pmp.set pmp (1 + i) (enclave_region_entry e ~perm:Pmp.no_access))
    (live_enclaves t);
  Pmp.set pmp (Pmp.entry_count - 1) background_entry

let program_enclave_pmp t eid =
  let pmp = Machine.pmp t.machine in
  Pmp.clear pmp;
  Pmp.set pmp 0 sm_region_entry;
  let slot = ref 1 in
  List.iter
    (fun (e : Enclave.t) ->
      let perm = if e.id = eid then Pmp.full_access else Pmp.no_access in
      Pmp.set pmp !slot (enclave_region_entry e ~perm);
      incr slot)
    (live_enclaves t);
  Pmp.set pmp !slot
    (Pmp.napot_entry ~base:Memory_layout.utm_base ~size:Memory_layout.utm_size
       ~perm:Pmp.read_write ~locked:false)
  (* No background entry: everything else is denied to the enclave. *)

(* {2 Measurement} *)

let measure t ~base ~size =
  let mem = Machine.memory t.machine in
  let words = size / 8 in
  let h = ref 0x7EE5EC_0FFEEL in
  for i = 0 to words - 1 do
    let w = Memory.read mem ~addr:(Int64.add base (Int64.of_int (i * 8))) ~size:8 in
    h := Word.splitmix64 (Int64.logxor !h w)
  done;
  !h

(* {2 Context switching}

   Ordinary switches bank/restore the architectural registers on the
   monitor side and wipe the GPRs so no architectural state crosses the
   boundary; Keystone does the same.  What it does NOT do — flush any
   microarchitectural structure — is exactly what TEESec probes. *)

let wipe_gprs t =
  let m = t.machine in
  for r = 1 to 31 do
    Machine.set_reg m r 0L
  done

let bank_regs t = Array.init 32 (fun r -> Machine.get_reg t.machine r)

let restore_regs t bank = Array.iteri (fun r v -> Machine.set_reg t.machine r v) bank

(* {2 Lifecycle} *)

let create_enclave t ?(size = Memory_layout.enclave_size) () =
  let id = List.length t.enclaves in
  if id >= Memory_layout.max_enclaves then Error Out_of_enclave_slots
  else begin
    let base = Memory_layout.enclave_base id in
    let e = Enclave.create ~id ~base ~size in
    t.enclaves <- e :: t.enclaves;
    e.measurement <- measure t ~base ~size;
    (* The new region becomes invisible to the host immediately. *)
    program_host_pmp t;
    Ok id
  end

let register_enclave_program t eid prog = Hashtbl.replace t.programs eid prog

let enter_monitor t =
  Machine.switch_context t.machine ~to_ctx:Exec_context.Monitor

let return_to_host t =
  program_host_pmp t;
  Machine.switch_context t.machine ~to_ctx:(Exec_context.Host Priv.Supervisor)

let run_enclave_common t eid ~resume =
  match enclave t eid with
  | None -> Error Invalid_enclave_id
  | Some e -> (
    let expected = if resume then Enclave.Stopped else Enclave.Fresh in
    if e.state <> expected then Error (Invalid_state e.state)
    else
      match Enclave.transition e ~to_state:Enclave.Running with
      | Error s -> Error (Invalid_state s)
      | Ok () ->
        let host_bank = bank_regs t in
        enter_monitor t;
        program_enclave_pmp t eid;
        wipe_gprs t;
        (match e.saved_regs with
        | Some bank when resume -> restore_regs t bank
        | Some _ | None -> ());
        Machine.switch_context t.machine ~to_ctx:(Exec_context.Enclave eid);
        let final_state =
          match Hashtbl.find_opt t.programs eid with
          | None -> Enclave.Stopped
          | Some prog -> (
            try
              let _stop = Machine.run t.machine prog in
              Enclave.Stopped
            with Enclave_exit_requested id when id = eid -> Enclave.Exited)
        in
        enter_monitor t;
        e.saved_regs <- Some (bank_regs t);
        (match Enclave.transition e ~to_state:final_state with
        | Ok () -> ()
        | Error _ -> (* Running -> Stopped/Exited is always legal. *) assert false);
        wipe_gprs t;
        restore_regs t host_bank;
        return_to_host t;
        Ok e.state)

let run_enclave t eid = run_enclave_common t eid ~resume:false
let resume_enclave t eid = run_enclave_common t eid ~resume:true

let destroy_enclave t eid =
  match enclave t eid with
  | None -> Error Invalid_enclave_id
  | Some e ->
    if not (Enclave.can_destroy e) then Error (Invalid_state e.state)
    else begin
      enter_monitor t;
      (* sm_destroy_enclave: memset(base, 0, size) through the real
         store path — the refills drag the dying enclave's secrets
         through the LFB (leakage case D3).  In machine mode with no
         fault hook or taps this is the line path, whose records equal
         the per-word oracle's ([Machine.memset_words]). *)
      Machine.memset_region t.machine ~origin:Log.Memset_destroy ~addr:e.base
        ~size:(Int64.of_int e.size) ~value:0L;
      (match Enclave.transition e ~to_state:Enclave.Destroyed with
      | Ok () -> ()
      | Error _ -> assert false);
      Hashtbl.remove t.programs eid;
      return_to_host t;
      Ok ()
    end

let attest_enclave t eid =
  match enclave t eid with
  | None -> Error Invalid_enclave_id
  | Some e -> Ok e.measurement

(* {2 Host execution} *)

let run_host t prog =
  (match Machine.context t.machine with
  | Exec_context.Host Priv.Supervisor -> ()
  | _ -> Machine.switch_context t.machine ~to_ctx:(Exec_context.Host Priv.Supervisor));
  Machine.run t.machine prog

let run_host_user t prog =
  (match Machine.context t.machine with
  | Exec_context.Host Priv.User -> ()
  | _ -> Machine.switch_context t.machine ~to_ctx:(Exec_context.Host Priv.User));
  Machine.run t.machine prog

(* {2 Interrupt service routine (M1)} *)

let context_save_area = Int64.add Memory_layout.sm_base 0x8000L

let arm_external_interrupt t =
  Machine.set_pending_interrupt t.machine (fun m ->
      (* The interrupt arrives mid-pipeline: the service routine saves
         the logical register file to SM memory.  The stores land in the
         store buffer, carrying whatever transient values were written
         back before the flush. *)
      let prev_ctx = Machine.context m in
      Machine.set_context m Exec_context.Monitor;
      for r = 1 to 31 do
        let vaddr = Int64.add context_save_area (Int64.of_int (r * 8)) in
        ignore
          (Machine.store ~origin:Log.Context_save m ~vaddr ~size:8
             ~value:(Machine.get_reg m r) ())
      done;
      Machine.set_context m prev_ctx)

(* {2 SBI dispatch} *)

let result_to_a0 t = function
  | Ok v -> Machine.set_reg t.machine Instr.a0 v
  | Error _ -> Machine.set_reg t.machine Instr.a0 Sbi.error_code

let handle_ecall t m =
  let code = Machine.get_reg m Instr.a7 in
  let arg0 = Machine.get_reg m Instr.a0 in
  match Machine.context m with
  | Exec_context.Enclave eid -> (
    match Sbi.of_code code with
    | Some Sbi.Exit_enclave -> raise (Enclave_exit_requested eid)
    | Some _ | None ->
      (* Enclaves may only exit; other calls are ignored. *)
      ())
  | Exec_context.Host _ | Exec_context.Monitor -> (
    let eid = Int64.to_int arg0 in
    match Sbi.of_code code with
    | Some Sbi.Create_enclave ->
      result_to_a0 t
        (Result.map Int64.of_int (create_enclave t ()))
    | Some Sbi.Run_enclave ->
      result_to_a0 t (Result.map (fun _ -> 0L) (run_enclave t eid))
    | Some Sbi.Resume_enclave ->
      result_to_a0 t (Result.map (fun _ -> 0L) (resume_enclave t eid))
    | Some Sbi.Stop_enclave ->
      (* In this synchronous model enclaves stop when they yield; the
         host-side stop call is accepted as a no-op acknowledgement. *)
      result_to_a0 t (Ok 0L)
    | Some Sbi.Destroy_enclave ->
      result_to_a0 t (Result.map (fun () -> 0L) (destroy_enclave t eid))
    | Some Sbi.Attest_enclave -> result_to_a0 t (attest_enclave t eid)
    | Some Sbi.Exit_enclave | None ->
      Machine.set_reg m Instr.a0 Sbi.error_code)

let install machine =
  let t =
    {
      machine;
      enclaves = [];
      programs = Hashtbl.create 8;
      host_reg_bank = None;
    }
  in
  t.host_reg_bank <- None;
  Machine.set_ecall_handler machine (fun m -> handle_ecall t m);
  program_host_pmp t;
  Machine.set_context machine (Exec_context.Host Priv.Supervisor);
  t
