open! Import

type trace = {
  title : string;
  lines : string list;
  observations : (string * string) list;
}

let pp_trace fmt t =
  Format.fprintf fmt "--- %s ---@." t.title;
  List.iter (fun l -> Format.fprintf fmt "  %s@." l) t.lines;
  List.iter (fun (k, v) -> Format.fprintf fmt "  %-46s %s@." (k ^ ":") v) t.observations

let record_to_string r = Format.asprintf "%a" Log.pp_record r

(* Keep the log lines that mention one of the given structures as Write
   events — the "interesting" excerpt of a figure's trace. *)
let excerpt log structures =
  let lines = ref [] in
  Log.iter log (fun c ->
      let keep =
        match Log.Cursor.kind c with
        | Log.Write_kind -> List.exists (Structure.equal (Log.Cursor.structure c)) structures
        | Log.Exception_kind -> true
        | _ -> false
      in
      if keep then lines := record_to_string (Log.Cursor.record c) :: !lines);
  List.rev !lines

let run_path config path ~params =
  let tc = Assembler.assemble ~id:0 path ~params in
  let outcome = Runner.run config tc in
  let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
  (outcome, findings)

let cases_str findings =
  match Checker.distinct_cases findings with
  | [] -> "none"
  | cases -> String.concat "," (List.map Case.to_string cases)

let core_name (config : Config.t) = Config.core_kind_to_string config.Config.kind

let prefetcher config =
  let params = Params.make ~offset:56 ~width:8 ~variant:0 () in
  let outcome, findings = run_path config Access_path.Imp_acc_pref ~params in
  let secret_in_lfb =
    List.exists
      (fun (f : Checker.finding) -> f.Checker.case = Some Case.D1)
      findings
  in
  {
    title =
      Printf.sprintf
        "Figure 2: boundary-straddling host load abusing the next-line prefetcher (%s)"
        (core_name config);
    lines = excerpt outcome.Runner.log [ Structure.Prefetcher; Structure.Lfb ];
    observations =
      [
        ("host access", "last accessible line before the enclave region");
        ( "prefetcher present",
          string_of_bool config.Config.has_l1_prefetcher );
        ("enclave line pulled into LFB (D1)", string_of_bool secret_in_lfb);
        ("cases found", cases_str findings);
      ];
  }

let ptw config =
  let params = Params.make ~offset:0 ~width:8 ~variant:0 () in
  let outcome, findings = run_path config Access_path.Imp_acc_ptw_root ~params in
  let d2 =
    List.exists (fun (f : Checker.finding) -> f.Checker.case = Some Case.D2) findings
  in
  {
    title =
      Printf.sprintf
        "Figure 3: satp hijacked into enclave memory, TLB-missing load forces a walk (%s)"
        (core_name config);
    lines = excerpt outcome.Runner.log [ Structure.Lfb; Structure.Ptw_cache ];
    observations =
      [
        ( "PTW PMP pre-check",
          if config.Config.ptw_pmp_precheck then "before request (no request issued)"
          else "after access (request already sent)" );
        ("enclave line filled into LFB (D2)", string_of_bool d2);
        ("cases found", cases_str findings);
      ];
  }

let destroy_residue config =
  let params = Params.make ~offset:0 ~width:8 ~variant:0 () in
  let outcome, findings =
    run_path config Access_path.Imp_acc_destroy_memset ~params
  in
  let d3 =
    List.exists (fun (f : Checker.finding) -> f.Checker.case = Some Case.D3) findings
  in
  {
    title =
      Printf.sprintf
        "Figure 4: sm_destroy_enclave memset drags dying secrets through the LFB (%s)"
        (core_name config);
    lines = excerpt outcome.Runner.log [ Structure.Lfb ];
    observations =
      [
        ( "LFB retains completed fills",
          string_of_bool config.Config.lfb_retains_stale );
        ("secrets persist in LFB after switch (D3)", string_of_bool d3);
        ("cases found", cases_str findings);
      ];
  }

(* Figure 5 is driven by hand: one faulting load with the secret hot in
   the L1D, one with it evicted. *)
let xs_fake_hit config =
  let measure ~in_l1 =
    let env = Env.create config Params.default in
    Gadget_library.create_enclave.Gadget.emit env;
    Gadget_library.fill_enc_mem.Gadget.emit env;
    if not in_l1 then begin
      Gadget_library.evict_enc_l1.Gadget.emit env;
      Gadget_library.evict_enc_l2.Gadget.emit env
    end;
    Machine.switch_context env.Env.machine
      ~to_ctx:(Exec_context.Host Priv.Supervisor);
    let r = Machine.load env.Env.machine ~vaddr:(Env.secret_addr env) ~size:8 () in
    (r, env)
  in
  let hit, env_hit = measure ~in_l1:true in
  let miss, _env_miss = measure ~in_l1:false in
  let secret = Secret.value_for ~seed:Params.default.Params.seed ~addr:(Env.secret_addr env_hit) in
  {
    title =
      Printf.sprintf "Figure 5: faulting-load response, secret in vs not in L1D (%s)"
        (core_name config);
    lines = [];
    observations =
      [
        ("hit response latency (cycles)", string_of_int hit.Machine.latency);
        ( "hit response data",
          if Int64.equal hit.Machine.value secret then "verbatim secret"
          else Word.to_hex hit.Machine.value );
        ("hit forwarded transiently", string_of_bool hit.Machine.transient_forward);
        ("miss response latency (cycles)", string_of_int miss.Machine.latency);
        ( "miss response data",
          if not (Int64.equal miss.Machine.value 0L) then Word.to_hex miss.Machine.value
          else if config.Config.faulting_miss_fake_hit then "zero (fake hit)"
          else "zero (no forward; line filled into LFB instead)" );
        ( "miss fills LFB",
          string_of_bool (not config.Config.faulting_miss_fake_hit) );
      ];
  }

let hpc_interrupt config =
  let env = Env.create config Params.default in
  let m = env.Env.machine in
  let marker = 0x1234_CAFE_F00DL in
  Csr.raw_write (Machine.csr m) (Csr.Mhpmcounter 4) marker;
  Security_monitor.arm_external_interrupt env.Env.sm;
  let prog =
    Program.of_instrs ~base:Memory_layout.host_code_base
      [ Instr.Csrr (Instr.a5, Csr.Mhpmcounter 4); Instr.Halt ]
  in
  ignore (Security_monitor.run_host env.Env.sm prog);
  (* The interrupt service routine spills x1..x31; with a 16-entry buffer
     the early registers may already have drained into the L1D, so check
     both the buffer and the logged context-save stores. *)
  let spilled = ref (Machine.store_buffer_holds m marker) in
  Log.iter (Machine.log m) (fun c ->
      if
        Log.Cursor.kind c = Log.Write_kind
        && Log.Cursor.structure c = Structure.Store_buffer
        && Log.Cursor.origin c = Log.Context_save
        && Log.Cursor.find_data c marker >= 0
      then spilled := true);
  let spilled = !spilled in
  let arch_leak = not (Int64.equal (Machine.get_reg m Instr.a5) 0L) in
  {
    title =
      Printf.sprintf
        "Figure 6: privileged counter read + interrupt in the transient window (%s)"
        (core_name config);
    lines = excerpt (Machine.log m) [ Structure.Reg_file; Structure.Store_buffer ];
    observations =
      [
        ("CSR privilege check", if config.Config.lazy_csr_priv_check then "lazy" else "early");
        ("architectural register leaked", string_of_bool arch_leak);
        ("counter value spilled to store buffer", string_of_bool spilled);
      ];
  }

let btb_alias config =
  let probe_delta ~enclave_taken =
    let variant = if enclave_taken then 0 else 4 in
    let params = Params.make ~variant () in
    let tc = Assembler.assemble ~id:0 Access_path.Meta_btb ~params in
    let outcome = Runner.run config tc in
    let findings = Checker.check outcome.Runner.log outcome.Runner.tracker in
    let delta = Machine.get_reg outcome.Runner.env.Env.machine Instr.a4 in
    (delta, findings, outcome)
  in
  let delta_taken, findings_taken, outcome = probe_delta ~enclave_taken:true in
  let delta_not_taken, _, _ = probe_delta ~enclave_taken:false in
  let m = outcome.Runner.env.Env.machine in
  let index = Gadget_library.btb_branch_index ~variant:0 in
  let host_pc = Int64.add Memory_layout.host_code_base (Int64.of_int (4 * index)) in
  let enclave_pc =
    Int64.add (Memory_layout.enclave_code_base 0) (Int64.of_int (4 * index))
  in
  let ubtb = Machine.ubtb m in
  {
    title =
      Printf.sprintf "Figure 7: host and enclave branches alias in the uBTB (%s)"
        (core_name config);
    lines = [];
    observations =
      [
        ("host branch PC", Word.to_hex host_pc);
        ("enclave branch PC", Word.to_hex enclave_pc);
        ( "uBTB set index (host / enclave)",
          Printf.sprintf "%d / %d"
            (Btb.index_of ubtb ~pc:host_pc)
            (Btb.index_of ubtb ~pc:enclave_pc) );
        ( "uBTB partial tag (host / enclave)",
          Printf.sprintf "%s / %s"
            (Word.to_hex (Btb.tag_of ubtb ~pc:host_pc))
            (Word.to_hex (Btb.tag_of ubtb ~pc:enclave_pc)) );
        ("PCs alias", string_of_bool (Btb.aliases ubtb ~pc1:host_pc ~pc2:enclave_pc));
        ( "probe cycles (enclave taken / not taken)",
          Printf.sprintf "%Ld / %Ld" delta_taken delta_not_taken );
        ( "outcome distinguishable",
          string_of_bool (not (Int64.equal delta_taken delta_not_taken)) );
        ("cases found", cases_str findings_taken);
      ];
  }

let btb_tag_sweep config ~tag_bits =
  List.map
    (fun bits ->
      let cfg = { config with Config.ubtb_tag_bits = bits; ftb_tag_bits = bits } in
      let probe ~enclave_taken =
        let variant = if enclave_taken then 0 else 4 in
        let tc = Assembler.assemble ~id:0 Access_path.Meta_btb ~params:(Params.make ~variant ()) in
        let outcome = Runner.run cfg tc in
        Machine.get_reg outcome.Runner.env.Env.machine Instr.a4
      in
      let delta_taken = probe ~enclave_taken:true in
      let delta_not = probe ~enclave_taken:false in
      let m = Machine.create cfg in
      let index = Gadget_library.btb_branch_index ~variant:0 in
      let host_pc = Int64.add Memory_layout.host_code_base (Int64.of_int (4 * index)) in
      let enclave_pc =
        Int64.add (Memory_layout.enclave_code_base 0) (Int64.of_int (4 * index))
      in
      ( bits,
        Btb.aliases (Machine.ubtb m) ~pc1:host_pc ~pc2:enclave_pc,
        not (Int64.equal delta_taken delta_not) ))
    tag_bits

let all config =
  [
    ("figure2", prefetcher config);
    ("figure3", ptw config);
    ("figure4", destroy_residue config);
    ("figure5", xs_fake_hit config);
    ("figure6", hpc_interrupt config);
    ("figure7", btb_alias config);
  ]
