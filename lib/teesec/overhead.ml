open! Import

type measurement = {
  label : string;
  mitigations : Mitigation.t list;
  cycles : int;
  l1_misses : int64;
  overhead_pct : float;
}

type workload = Mixed | Switch_heavy | Compute_heavy

let workload_to_string = function
  | Mixed -> "mixed"
  | Switch_heavy -> "switch-heavy"
  | Compute_heavy -> "compute-heavy"

type result = {
  config : Config.t;
  workload : workload;
  baseline_cycles : int;
  rounds : int;
  measurements : measurement list;
}

(* Host compute: walk host-data lines and branch on the values.
   [intensity] controls how many lines each round touches. *)
let host_round_program ~round ~intensity =
  let base = Memory_layout.host_data_base in
  let body =
    List.concat_map
      (fun i ->
        let line = ((round * intensity) + i) mod 256 in
        [
          Program.Instr (Instr.Li (Instr.t1, Int64.add base (Int64.of_int (line * 64))));
          Program.Instr (Instr.ld Instr.t0 Instr.t1 0L);
          Program.Instr (Instr.Alui (Instr.Add, Instr.t0, Instr.t0, 1L));
          Program.Instr (Instr.sd Instr.t0 Instr.t1 0L);
          Program.Instr (Instr.Branch (Instr.Lt, 0, Instr.t0, Printf.sprintf "on%d" i));
          Program.Instr Instr.Nop;
          Program.Label (Printf.sprintf "on%d" i);
          Program.Instr (Instr.ld Instr.t2 Instr.t1 8L);
        ])
      (List.init intensity (fun i -> i))
  in
  Program.assemble ~base:Memory_layout.host_code_base
    (body
    @ [
        Program.Instr (Instr.Csrr (Instr.a1, Csr.Hpmcounter 4));
        Program.Instr Instr.Halt;
      ])

(* Enclave work: touch the secret line and take a data-dependent
   branch. *)
let enclave_round_elements line =
  [
    Program.Instr (Instr.Li (Instr.t1, line));
    Program.Instr (Instr.ld Instr.t0 Instr.t1 0L);
    Program.Instr (Instr.ld Instr.t2 Instr.t1 8L);
    Program.Instr (Instr.Alu (Instr.Xor, Instr.t0, Instr.t0, Instr.t2));
    Program.Instr (Instr.sd Instr.t0 Instr.t1 16L);
    Program.Instr (Instr.Branch (Instr.Ne, Instr.t0, 0, "t"));
    Program.Instr Instr.Nop;
    Program.Label "t";
    Program.Instr Instr.Fence;
    Program.Instr Instr.Halt;
  ]

let workload_cycles config ~workload ~rounds =
  let intensity = match workload with
    | Mixed -> 4
    | Switch_heavy -> 1
    | Compute_heavy -> 24
  in
  let env = Env.create config (Params.make ~seed:0x0EADL ()) in
  Gadget_library.create_enclave.Gadget.emit env;
  Gadget_library.fill_enc_mem.Gadget.emit env;
  let eid = Env.victim_exn env in
  let line = Env.victim_secret_line env in
  let sm = env.Env.sm in
  let m = env.Env.machine in
  let start_cycle = Machine.cycle m in
  let start_misses = Hpc.read (Machine.csr m) Hpc.L1d_miss in
  for round = 0 to rounds - 1 do
    ignore (Security_monitor.run_host sm (host_round_program ~round ~intensity));
    let prog =
      Program.assemble ~base:(Memory_layout.enclave_code_base eid)
        (enclave_round_elements line)
    in
    Security_monitor.register_enclave_program sm eid prog;
    (match Security_monitor.resume_enclave sm eid with
    | Ok _ -> ()
    | Error e -> invalid_arg (Security_monitor.error_to_string e))
  done;
  let loop_cycles = Machine.cycle m - start_cycle in
  let loop_misses = Int64.sub (Hpc.read (Machine.csr m) Hpc.L1d_miss) start_misses in
  (match Security_monitor.destroy_enclave sm eid with
  | Ok () -> ()
  | Error e -> invalid_arg (Security_monitor.error_to_string e));
  (loop_cycles, loop_misses)

let evaluate ?(workload = Mixed) ?(rounds = 16) ?(jobs = 1) config =
  let settings =
    ("baseline (no mitigation)", [])
    :: List.map
         (fun m -> (Mitigation.to_string m, [ m ]))
         (Mitigation.all @ Mitigation.extensions)
  in
  (* Each setting simulates an independent workload (its own [Env]), so
     the settings fan out across domains; the baseline-relative
     percentages are derived afterwards from the ordered results. *)
  let raw =
    Parallel.Pool.parmap ~jobs
      (fun (label, mitigations) ->
        let cfg = Config.with_mitigations config mitigations in
        let cycles, l1_misses = workload_cycles cfg ~workload ~rounds in
        (label, mitigations, cycles, l1_misses))
      settings
  in
  let baseline_cycles =
    match raw with (_, _, cycles, _) :: _ -> cycles | [] -> 0
  in
  let measurements =
    List.map
      (fun (label, mitigations, cycles, l1_misses) ->
        let overhead_pct =
          if baseline_cycles = 0 then 0.0
          else
            100.0
            *. (float_of_int cycles -. float_of_int baseline_cycles)
            /. float_of_int baseline_cycles
        in
        { label; mitigations; cycles; l1_misses; overhead_pct })
      raw
  in
  { config; workload; baseline_cycles; rounds; measurements }

let table results =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt
    "Extension: mitigation performance ablation (cycles, %% overhead vs baseline)@.";
  Format.fprintf fmt "%s@." (String.make 96 '-');
  Format.fprintf fmt "%-30s" "Mitigation";
  List.iter
    (fun r ->
      Format.fprintf fmt " %-24s"
        (Printf.sprintf "%s/%s"
           (Config.core_kind_to_string r.config.Config.kind)
           (workload_to_string r.workload)))
    results;
  Format.fprintf fmt "@.%s@." (String.make 96 '-');
  (match results with
  | [] -> ()
  | first :: _ ->
    List.iteri
      (fun i (m : measurement) ->
        Format.fprintf fmt "%-30s" m.label;
        List.iter
          (fun r ->
            let m = List.nth r.measurements i in
            Format.fprintf fmt " %9d (%+6.1f%%)    " m.cycles m.overhead_pct)
          results;
        Format.fprintf fmt "@.")
      first.measurements);
  Format.fprintf fmt "%s@." (String.make 96 '-');
  Format.fprintf fmt
    "The tagging extension (tag-bpu-hpc) closes M1/M2 at near-zero cost, while the \
     flush-based@.countermeasures pay both the flush and the post-switch refill \
     misses.@.";
  Format.pp_print_flush fmt ();
  Buffer.contents buf
