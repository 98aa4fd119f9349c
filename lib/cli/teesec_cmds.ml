(* TEESec command-line interface.

   Mirrors the artifact workflow: inspect the verification plan and the
   gadget inventory, run single parameterised test cases (the
   TestGadgetConstructor + Checker flow), run full campaigns (Table 3),
   drive the coverage-guided fuzzing engine, evaluate mitigations
   (Table 4), and replay the figure scenarios.

   This lives in a library (rather than bin/) so the test suite can
   evaluate the command tree against a synthetic argv: every subcommand
   must accept --help with exit code 0 and answer unknown flags with its
   usage, and the smoke tests pin exactly that. *)

open Cmdliner

(* --core parses to the name a spec carries and the configuration the
   other subcommands run on. *)
let core_conv =
  let parse s =
    let name = String.lowercase_ascii s in
    match Uarch.Config.of_core_name name with
    | Some c -> Ok (name, c)
    | None -> Error (`Msg (Printf.sprintf "unknown core %S (use boom or xiangshan)" s))
  in
  Arg.conv (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

let core_flag =
  Arg.(value & opt core_conv ("boom", Uarch.Config.boom) & info [ "core" ] ~docv:"CORE"
         ~doc:"Core under test: boom or xiangshan.")

let core_arg = Term.(const snd $ core_flag)
let core_name_arg = Term.(const fst $ core_flag)

let path_conv =
  let parse s =
    match
      List.find_opt
        (fun p -> String.lowercase_ascii (Teesec.Access_path.to_string p) = String.lowercase_ascii s)
        Teesec.Access_path.all
    with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown access path %S" s))
  in
  let print fmt p = Format.fprintf fmt "%s" (Teesec.Access_path.to_string p) in
  Arg.conv (parse, print)

(* --jobs: 0 resolves to the host's recommended domain count.  Results
   are deterministic for every value (the campaign merges in test-case
   order), so this only trades wall time. *)
let jobs_arg =
  let parse jobs =
    if jobs < 0 then
      `Error (false, Printf.sprintf "--jobs must be >= 0, got %d" jobs)
    else if jobs = 0 then `Ok (Parallel.Pool.default_jobs ())
    else `Ok jobs
  in
  Term.(
    ret
      (const parse
      $ Arg.(
          value & opt int 1
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:
                "Run independent test cases across $(docv) OCaml domains \
                 (default 1; 0 = all hardware threads). Output is identical \
                 for every value.")))

(* --trace / --metrics: observability exports.  The sink is only
   created when at least one flag is given, so unobserved runs take the
   noop path (a single branch per instrumentation point) and observed
   runs still produce byte-identical verdict output — wall-clock data
   flows only into these two files. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the run's spans to \
               $(docv) (open in Perfetto or chrome://tracing). Never \
               changes verdicts or reports.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics registry to $(docv) in Prometheus text \
               format (JSON when $(docv) ends in .json). Never changes \
               verdicts or reports.")

let save_obs_outputs obs ~trace ~metrics =
  (match trace with
  | Some path ->
    Obs.save_trace obs ~path;
    Format.printf "trace written to %s@." path
  | None -> ());
  match metrics with
  | Some path ->
    (if Filename.check_suffix path ".json" then Obs.save_metrics_json
     else Obs.save_metrics)
      obs ~path;
    Format.printf "metrics written to %s@." path
  | None -> ()

let with_obs ~trace ~metrics f =
  let obs =
    if trace = None && metrics = None then Obs.noop else Obs.create ()
  in
  let result = f obs in
  save_obs_outputs obs ~trace ~metrics;
  result

(* --wave: microarchitectural waveform capture (lib/wave).  Like the
   observability exports, the taps never change verdicts — the
   differential suite pins byte-identical reports with taps on and
   off — so the flag only adds the side-channel file. *)
let wave_arg =
  Arg.(value & opt (some string) None & info [ "wave" ] ~docv:"FILE"
         ~doc:"Attach microarchitectural wave taps and write the run's \
               per-test-case waveforms to $(docv): VCD when $(docv) ends \
               in .vcd (load in GTKWave or Surfer), otherwise the raw \
               framed event streams (readable back by the explain and \
               vcd-check machinery). Never changes verdicts or reports.")

let skip_corrupt_wave ~path e =
  Format.printf "warning: corrupt wave payload (%s); %s not written@." e path

(* A .bin file is written frame by frame, so the framed blob never
   exists beside the streams it frames. *)
let write_wave_file ~path streams =
  let written =
    if Filename.check_suffix path ".vcd" then
      Result.map (Obs.write_file ~path) (Wave.Vcd.render streams)
    else
      Ok (Out_channel.with_open_bin path (fun oc -> Wave.Event.output_frames oc streams))
  in
  match written with
  | Error e -> skip_corrupt_wave ~path e
  | Ok () ->
    Format.printf "waveforms (%d stream(s)) written to %s@."
      (List.length streams) path

(* A wave payload fetched from the daemon is already framed
   ({!Wave.Event.frame_streams}, shard order); unframe to render VCD or
   to count the streams for the confirmation line.  A frame or a stream
   that does not decode skips the file with a warning. *)
let save_wave_blob ~path blob =
  match Wave.Event.unframe blob with
  | Error e -> skip_corrupt_wave ~path e
  | Ok streams -> write_wave_file ~path streams

(* --snapshot / --no-snapshot: the fork-point execution engine
   (lib/teesec/snapshot.ml).  On by default; the differential suite pins
   that reports are byte-identical either way, so the flag only trades
   wall time — --no-snapshot is the oracle path the engine is checked
   against. *)
let snapshot_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "snapshot" ]
              ~doc:
                "Establish shared enclave-setup prefixes through the \
                 snapshot engine: run each distinct prefix once, restore \
                 the captured machine state for every later test case \
                 (default). Reports are byte-identical with or without \
                 it." );
          ( false,
            info [ "no-snapshot" ]
              ~doc:
                "Replay every gadget of every test case from scratch \
                 (the replay oracle the snapshot engine is verified \
                 against)." );
        ])

(* {2 Execution knobs}

   --jobs, --snapshot, --trace, --metrics and --wave choose how a run
   executes, never what it computes — every artifact is byte-identical
   across them (test/test_equiv.ml) — so they stay out of the spec. *)
type exec = {
  jobs : int;
  snapshot : bool;
  trace : string option;
  metrics : string option;
  wave_out : string option;
}

let exec_term =
  Term.(
    const (fun jobs snapshot trace metrics wave_out ->
        { jobs; snapshot; trace; metrics; wave_out })
    $ jobs_arg $ snapshot_arg $ trace_arg $ metrics_arg $ wave_arg)

(* [run_exec x config run] creates the sink and the snapshot engine the
   knobs ask for, runs [run], then writes the trace, metrics and wave
   files.  [run] returns its result and its per-case wave streams.  An
   engine carries the wave setting itself, so [?wave] reaches [run] only
   on the replay path. *)
let run_exec x config
    (run :
      jobs:int ->
      obs:Obs.t ->
      ?snapshots:Teesec.Snapshot.t ->
      ?wave:bool ->
      unit ->
      'a * (string * string) list) =
  let tap = x.wave_out <> None in
  let result, waves =
    with_obs ~trace:x.trace ~metrics:x.metrics (fun obs ->
        if x.snapshot then
          run ~jobs:x.jobs ~obs
            ~snapshots:(Teesec.Snapshot.create ~obs ~wave:tap config)
            ()
        else run ~jobs:x.jobs ~obs ~wave:tap ())
  in
  Option.iter (fun path -> write_wave_file ~path waves) x.wave_out;
  result

let progress_printer ~quiet ~width =
  if quiet then fun _ _ _ -> ()
  else fun i n line -> Format.printf "[%*d/%*d] %s@." width i width n line

(* {2 Pipeline flags}

   Every parameter a [Serve.Request.spec] carries comes from one flag
   declared here, composed into one spec term per kind.  The one-shot
   campaign, inject and fuzz subcommands and submit all build their
   spec from these terms, and [Serve.Request.validate] is the only
   check, so a bad value is the same usage error (exit 124, naming the
   flag) on both transports.  The seed, budget and fault-count flags
   also serve testcase and profile, with their own defaults. *)

let mitigations_arg =
  Arg.(value & opt_all string [] & info [ "mitigation"; "m" ] ~docv:"NAME"
         ~doc:"(campaign) Enable a mitigation (repeatable): one of Table \
               4's six, or the tagging countermeasure tag-bpu-hpc.")

let full_arg =
  Arg.(value & flag & info [ "full" ]
         ~doc:"Run over all 585 grid test cases (default: the \
               representative slice).")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N"
         ~doc:"(campaign) Long-fuzzing mode: $(docv) randomly drawn test \
               cases instead of the grid corpus.")

let fuzz_seed_arg =
  Arg.(value & opt int64 0x5EEDL & info [ "fuzz-seed" ] ~docv:"SEED"
         ~doc:"(campaign) Seed for the --random corpus.")

let seed_info =
  Arg.info [ "seed" ] ~docv:"SEED"
    ~doc:"Seed the whole run replays from: the same seed always \
          reproduces the same secrets, fault plans, mutations and report."

let seed_arg = Arg.(value & opt int64 0x5EEDL seed_info)

let faults_info =
  Arg.info [ "faults" ] ~docv:"N"
    ~doc:"Number of fault plans to sample and inject."

let budget_info =
  Arg.info [ "budget" ] ~docv:"N" ~doc:"Total fuzz test-case executions."

let batch_arg =
  Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N"
         ~doc:"(fuzz) Candidates generated per parallel batch (independent \
               of --jobs, so reports are too).")

let energy_arg =
  Arg.(value & opt int 80 & info [ "energy" ] ~docv:"PCT"
         ~doc:"(fuzz) Mutation energy: percentage of candidates derived by \
               mutating corpus entries, in 0..100. 0 disables feedback \
               entirely (the blind random baseline).")

let stop_on_full_arg =
  Arg.(value & flag & info [ "stop-on-full" ]
         ~doc:"(fuzz) Stop once every Table 3 case expected on the core is \
               found.")

let grid full = if full then Serve.Request.Full else Serve.Request.Slice

let campaign_spec =
  Term.(
    const (fun core mitigations full random fuzz_seed ->
        let corpus =
          match random with
          | Some count -> Serve.Request.Random { count; seed = fuzz_seed }
          | None -> grid full
        in
        Serve.Request.Campaign { core; mitigations; corpus })
    $ core_name_arg $ mitigations_arg $ full_arg $ random_arg $ fuzz_seed_arg)

let inject_spec =
  Term.(
    const (fun core faults seed full ->
        Serve.Request.Inject { core; faults; seed; full })
    $ core_name_arg
    $ Arg.(value & opt int 25 faults_info)
    $ seed_arg $ full_arg)

let fuzz_spec =
  Term.(
    const (fun core seed budget batch energy stop_on_full ->
        Serve.Request.Fuzz
          {
            core;
            options = { Fuzz.Engine.seed; budget; batch; energy; stop_on_full };
          })
    $ core_name_arg $ seed_arg
    $ Arg.(value & opt int 250 budget_info)
    $ batch_arg $ energy_arg $ stop_on_full_arg)

(* The spec paired with the configuration it resolves to. *)
let validated spec =
  Term.(
    ret
      (const (fun spec ->
           match Serve.Request.validate spec with
           | Ok config -> `Ok (spec, config)
           | Error msg -> `Error (false, msg))
      $ spec))

(* --width: reject anything the gadgets cannot emit, with the valid set
   in the error message (Params.make would also raise, but this fails at
   argument-parsing time with cmdliner's usual reporting). *)
let width_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid width %S (expected an integer)" s))
    | Some w when List.mem w Teesec.Params.valid_widths -> Ok w
    | Some w ->
      Error
        (`Msg
          (Printf.sprintf "invalid width %d: access width must be %s" w
             (String.concat ", " (List.map string_of_int Teesec.Params.valid_widths))))
  in
  Arg.conv (parse, Format.pp_print_int)

(* plan *)
let plan_cmd =
  let run config =
    Format.printf "%a@." Teesec.Plan.pp (Teesec.Plan.build config);
    print_string (Teesec.Tables.table1 ())
  in
  Cmd.v (Cmd.info "plan" ~doc:"Print the verification plan for a core.")
    Term.(const run $ core_arg)

(* gadgets *)
let gadgets_cmd =
  let run () =
    let section title gadgets =
      Format.printf "%s (%d):@." title (List.length gadgets);
      List.iter
        (fun g ->
          Format.printf "  %-28s %s@." (Teesec.Gadget.name g) g.Teesec.Gadget.description)
        gadgets
    in
    section "Setup gadgets" Teesec.Gadget_library.setup_gadgets;
    section "Helper gadgets" Teesec.Gadget_library.helper_gadgets;
    section "Access gadgets" Teesec.Gadget_library.access_gadgets;
    Format.printf "Total test cases in the deterministic corpus: %d@."
      (Teesec.Fuzzer.total_cases ())
  in
  Cmd.v (Cmd.info "gadgets" ~doc:"List the gadget inventory.") Term.(const run $ const ())

(* testcase *)
let testcase_cmd =
  let run config path offset width variant seed verbose save_log dump_asm =
    let params = Teesec.Params.make ~offset ~width ~variant ~seed () in
    let tc = Teesec.Assembler.assemble ~id:0 path ~params in
    Format.printf "%a@.@." Teesec.Testcase.pp tc;
    let outcome = Teesec.Runner.run config tc in
    let findings = Teesec.Checker.check outcome.Teesec.Runner.log outcome.Teesec.Runner.tracker in
    if verbose then Format.printf "%a@." Simlog.Log.pp outcome.Teesec.Runner.log;
    (match save_log with
    | Some path ->
      Simlog.Serialize.save ~path outcome.Teesec.Runner.log;
      Format.printf "Simulation log saved to %s (%d records)@.@." path
        outcome.Teesec.Runner.log_records
    | None -> ());
    if dump_asm then begin
      (* The artifact's generated dummy_entry.S equivalent. *)
      Format.printf "# Generated test-case assembly@.";
      List.iteri
        (fun i (label, prog) ->
          Format.printf "@.# fragment %d (%s)@.%a" i label Riscv.Program.pp prog)
        (Teesec.Env.programs outcome.Teesec.Runner.env);
      Format.printf "@."
    end;
    Teesec.Report.render Format.std_formatter outcome findings
  in
  let offset = Arg.(value & opt int 0 & info [ "offset" ] ~doc:"Byte offset in the secret line.") in
  let width = Arg.(value & opt width_conv 8 & info [ "width" ] ~doc:"Access width (1/2/4/8).") in
  let variant = Arg.(value & opt int 0 & info [ "variant" ] ~doc:"Gadget variant selector.") in
  let seed = Arg.(value & opt int64 0xDEADBEEFL & seed_info) in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Dump the full simulation log.") in
  let save_log =
    Arg.(value & opt (some string) None & info [ "save-log" ] ~docv:"FILE"
           ~doc:"Write the simulation log to FILE (SimLog.txt format).")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ]
           ~doc:"Print the generated assembly fragments of the test case.")
  in
  let path =
    Arg.(required & pos 0 (some path_conv) None & info [] ~docv:"ACCESS_PATH"
           ~doc:"Access path, e.g. Exp_Acc_Enc_L1.")
  in
  Cmd.v
    (Cmd.info "testcase"
       ~doc:"Assemble, run and check a single parameterised test case.")
    Term.(const run $ core_arg $ path $ offset $ width $ variant $ seed $ verbose $ save_log $ dump_asm)

(* check: the artifact's Checker.py flow — scan a saved SimLog for a
   secret value. *)
let check_cmd =
  let run logfile secrets all_contexts stats =
    match Simlog.Serialize.load ~path:logfile with
    | Error msg ->
      Format.printf "failed to parse %s: %s@." logfile msg;
      exit 1
    | Ok log ->
      if stats then Format.printf "%a@." Simlog.Stats.pp (Simlog.Stats.of_log log);
      List.iter
        (fun secret ->
          let untrusted (r : Simlog.Log.record) =
            match r.Simlog.Log.ctx with
            | Simlog.Exec_context.Host _ -> true
            | Simlog.Exec_context.Enclave _ | Simlog.Exec_context.Monitor -> false
          in
          let occurrences =
            List.filter
              (fun r -> all_contexts || untrusted r)
              (Simlog.Log.occurrences log secret)
          in
          match occurrences with
          | [] ->
            Format.printf "Secret 0x%Lx not observed%s in the log.@." secret
              (if all_contexts then "" else " by untrusted contexts")
          | occurrences ->
            List.iter
              (fun (r : Simlog.Log.record) ->
                let where, origin =
                  match r.Simlog.Log.event with
                  | Simlog.Log.Write { structure; origin; _ } ->
                    (Simlog.Structure.to_string structure,
                     Some (Simlog.Log.origin_to_string origin))
                  | Simlog.Log.Snapshot { structure; _ } ->
                    (Simlog.Structure.to_string structure ^ " (residue)", None)
                  | _ -> ("?", None)
                in
                Format.printf "Enclave secret leakage detected!@.";
                Format.printf "Secret value: 0x%Lx@." secret;
                Format.printf "Microarchitecture structure: %s@." where;
                (match origin with
                | Some o -> Format.printf "Access path origin: %s@." o
                | None -> ());
                Format.printf "Sim Cycle No.: %d@." r.Simlog.Log.cycle;
                Format.printf "Observing context: %s@."
                  (Simlog.Exec_context.to_string r.Simlog.Log.ctx);
                (match Simlog.Log.last_commit_before log ~cycle:r.Simlog.Log.cycle with
                | Some pc -> Format.printf "PC of Last Committed Inst.: 0x%Lx@.@." pc
                | None -> Format.printf "@."))
              occurrences)
        secrets
  in
  let logfile =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SIMLOG"
           ~doc:"Saved simulation log (from testcase --save-log).")
  in
  let secrets =
    Arg.(value & opt_all int64 [] & info [ "secret" ] ~docv:"VALUE"
           ~doc:"Secret value to search for (repeatable).")
  in
  let all_contexts =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Report trusted (enclave/monitor) observations too.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print log statistics first.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Search a saved simulation log for secret values.")
    Term.(const run $ logfile $ secrets $ all_contexts $ stats)

(* campaign *)
let campaign_cmd =
  let run (spec, config) x quiet csv provenance_out =
    let result =
      run_exec x config (fun ~jobs ~obs ?snapshots ?wave () ->
          let r =
            Teesec.Campaign.run
              ~progress:(progress_printer ~quiet ~width:3)
              ~jobs ~obs ?snapshots ?wave config
              (Serve.Request.corpus_of spec)
          in
          (r, r.Teesec.Campaign.waves))
    in
    Format.printf "@.%a@." Teesec.Campaign.pp_result result;
    (match provenance_out with
    | Some path ->
      Obs.write_file ~path
        (Teesec.Provenance.list_to_json result.Teesec.Campaign.provenance
        ^ "\n");
      Format.printf "provenance (%d record(s)) written to %s@."
        (List.length result.Teesec.Campaign.provenance)
        path
    | None -> ());
    match csv with
    | Some path ->
      Obs.write_file ~path (Teesec.Tables.table3_csv [ result ]);
      Format.printf "CSV written to %s@." path
    | None -> ()
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-test progress lines.") in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the per-case verdicts as CSV.")
  in
  let provenance_out =
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE"
           ~doc:"Write the per-finding provenance records (the causal \
                 chains behind every classified finding) as JSON; feed an \
                 id from it to $(b,teesec explain).")
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Run a leakage-discovery campaign (Table 3).")
    Term.(const run $ validated campaign_spec $ exec_term $ quiet $ csv
          $ provenance_out)

(* inject: checker-robustness campaign under sampled fault plans. *)
let inject_cmd =
  let run (spec, config) x quiet json =
    let faults, seed =
      match spec with
      | Serve.Request.Inject { faults; seed; _ } -> (faults, seed)
      | Serve.Request.Campaign _ | Serve.Request.Fuzz _ ->
        assert false (* [inject_spec] builds only Inject specs *)
    in
    let result =
      run_exec x config (fun ~jobs ~obs ?snapshots ?wave () ->
          let r =
            Inject.Inject_campaign.run
              ~progress:(progress_printer ~quiet ~width:4)
              ~jobs ~obs ?snapshots ?wave ~seed ~plans:faults config
              (Serve.Request.corpus_of spec)
          in
          (r, r.Inject.Inject_campaign.waves))
    in
    Format.printf "@.%a@." Inject.Robustness_report.pp result;
    match json with
    | Some path ->
      Inject.Robustness_report.save_json ~path result;
      Format.printf "JSON report written to %s@." path
    | None -> ()
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-run progress lines.") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the robustness report as deterministic JSON.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Rerun the corpus under deterministic fault injection and report \
          whether the checker's verdicts are masked, spurious or stable.")
    Term.(const run $ validated inject_spec $ exec_term $ quiet $ json)

(* fuzz: the coverage-guided mutational engine (lib/fuzz).  --corpus
   seeds change the report but have no spec field, so they are
   one-shot only. *)
let fuzz_cmd =
  let run (spec, config) x quiet json save_corpus corpus =
    let options =
      match spec with
      | Serve.Request.Fuzz { options; _ } -> options
      | Serve.Request.Campaign _ | Serve.Request.Inject _ ->
        assert false (* [fuzz_spec] builds only Fuzz specs *)
    in
    let seeds =
      match corpus with
      | None -> None
      | Some path -> (
        match Fuzz.Corpus_io.load ~path with
        | Error msg ->
          Format.printf "failed to load %s: %s@." path msg;
          exit 1
        | Ok testcases ->
          if not quiet then
            Format.printf "seeding from %s (%d entries)@." path
              (List.length testcases);
          Some testcases)
    in
    let report =
      run_exec x config (fun ~jobs ~obs ?snapshots ?wave () ->
          let r =
            Fuzz.Engine.run
              ~progress:(progress_printer ~quiet ~width:4)
              ~jobs ~obs ?snapshots ?wave ?seeds options config
          in
          (r, r.Fuzz.Engine.waves))
    in
    Format.printf "@.%a@." Fuzz.Fuzz_report.pp report;
    (match save_corpus with
    | Some path ->
      Fuzz.Corpus_io.save ~path report.Fuzz.Engine.corpus_cases;
      Format.printf "interesting corpus (%d entries) written to %s@."
        (List.length report.Fuzz.Engine.corpus_cases)
        path
    | None -> ());
    match json with
    | Some path ->
      Fuzz.Fuzz_report.save_json ~path report;
      Format.printf "JSON report written to %s@." path
    | None -> ()
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-test progress lines.") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the deterministic JSON report (byte-identical for \
                 every --jobs).")
  in
  let save_corpus =
    Arg.(value & opt (some string) None & info [ "save-corpus" ] ~docv:"FILE"
           ~doc:"Write the interesting corpus entries as a corpus file \
                 (see corpus-min).")
  in
  let corpus =
    Arg.(value & opt (some file) None & info [ "corpus" ] ~docv:"FILE"
           ~doc:"Seed the campaign from a corpus file (e.g. one emitted by \
                 symex --emit-corpus); the entries run right after the \
                 built-in seeds.  Ignored by the blind baseline (--energy 0).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the coverage-guided mutational fuzzing engine against a core \
          and report discovery times per leakage case.")
    Term.(const run $ validated fuzz_spec $ exec_term $ quiet $ json
          $ save_corpus $ corpus)

(* corpus-min: standalone corpus distillation. *)
let corpus_min_cmd =
  let run config input output jobs =
    match Fuzz.Corpus_io.load ~path:input with
    | Error msg ->
      Format.printf "failed to load %s: %s@." input msg;
      exit 1
    | Ok testcases ->
      let observations =
        Parallel.Pool.parmap ~jobs (Fuzz.Observe.run config) testcases
      in
      let edges = List.map (fun (o : Fuzz.Observe.t) -> o.Fuzz.Observe.edges) observations in
      let kept = Fuzz.Distill.apply edges testcases in
      Fuzz.Corpus_io.save ~path:output kept;
      Format.printf "%d test case(s) distilled to %d preserving coverage; written to %s@."
        (List.length testcases) (List.length kept) output
  in
  let input =
    Arg.(required & opt (some file) None & info [ "in"; "i" ] ~docv:"FILE"
           ~doc:"Input corpus file (from fuzz --save-corpus, or hand-written).")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output corpus file.")
  in
  Cmd.v
    (Cmd.info "corpus-min"
       ~doc:
         "Reduce a corpus to a minimal subset preserving its coverage on a \
          core (greedy set cover over coverage edges; deterministic).")
    Term.(const run $ core_arg $ input $ output $ jobs_arg)

(* symex: symbolic exploration of the SBI surface. *)
let symex_cmd =
  let run config max_paths emit_corpus json quiet jobs trace metrics =
    let report =
      with_obs ~trace ~metrics (fun obs ->
          Symex.Explore.run ~jobs ~max_paths ~obs config)
    in
    if not quiet then print_string (Symex.Symex_report.to_text report);
    (match json with
    | Some path ->
      Symex.Symex_report.save_json ~path report;
      Format.printf "JSON report written to %s@." path
    | None -> ());
    match emit_corpus with
    | Some path ->
      let n = Symex.Synthesize.emit report ~path in
      Format.printf "corpus: %d entr%s written to %s@." n
        (if n = 1 then "y" else "ies")
        path
    | None -> ()
  in
  let max_paths =
    let parse n =
      if n < 1 then `Error (false, Printf.sprintf "--max-paths must be >= 1, got %d" n)
      else `Ok n
    in
    Term.(
      ret
        (const parse
        $ Arg.(
            value & opt int Symex.Explore.default_max_paths
            & info [ "max-paths" ] ~docv:"N"
                ~doc:"Path budget per (scenario, call) model program; the DFS \
                      stops and the report is marked truncated once reached.")))
  in
  let emit_corpus =
    Arg.(value & opt (some string) None & info [ "emit-corpus" ] ~docv:"FILE"
           ~doc:"Lower the accepted-path witnesses into gadget test cases \
                 and write them as a corpus file (load with fuzz --corpus).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the deterministic JSON report (byte-identical for \
                 every --jobs).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No text summary.")
  in
  Cmd.v
    (Cmd.info "symex"
       ~doc:
         "Symbolically execute the SBI surface: enumerate every monitor \
          entry path per call, concretise witness argument vectors, \
          validate them by concrete replay, and optionally synthesise a \
          fuzz seed corpus from the accepted paths.")
    Term.(const run $ core_arg $ max_paths $ emit_corpus $ json $ quiet
          $ jobs_arg $ trace_arg $ metrics_arg)

(* mitigations *)
let mitigations_cmd =
  let run config jobs =
    let result = Teesec.Mitigation_eval.evaluate ~jobs config in
    Format.printf "%a@." Teesec.Mitigation_eval.pp_result result;
    print_string (Teesec.Tables.table4 [ result ])
  in
  Cmd.v (Cmd.info "mitigations" ~doc:"Evaluate the Table 4 mitigation knobs on a core.")
    Term.(const run $ core_arg $ jobs_arg)

(* scenario *)
let scenario_cmd =
  let run config name =
    let scenarios = Teesec.Scenarios.all config in
    match name with
    | None ->
      List.iter (fun (_, t) -> Format.printf "%a@." Teesec.Scenarios.pp_trace t) scenarios
    | Some n -> (
      match List.assoc_opt n scenarios with
      | Some t -> Format.printf "%a@." Teesec.Scenarios.pp_trace t
      | None ->
        Format.printf "unknown scenario %S; available: %s@." n
          (String.concat ", " (List.map fst scenarios)))
  in
  let figure_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE"
           ~doc:"figure2 .. figure7 (default: all).")
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Replay a paper figure as a trace on a core.")
    Term.(const run $ core_arg $ figure_arg)

(* coverage *)
let coverage_cmd =
  let run (spec, config) jobs =
    Format.printf "%a@." Teesec.Coverage.pp
      (Teesec.Coverage.measure ~jobs config (Serve.Request.corpus_of spec))
  in
  let spec =
    Term.(
      const (fun core full ->
          Serve.Request.Campaign { core; mitigations = []; corpus = grid full })
      $ core_name_arg $ full_arg)
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Report verification-plan coverage of a corpus on a core.")
    Term.(const run $ validated spec $ jobs_arg)

(* netlist *)
let netlist_cmd =
  let run config verilog =
    let design =
      match config.Uarch.Config.kind with
      | Uarch.Config.Boom -> Netlist.Designs.boom
      | Uarch.Config.Xiangshan -> Netlist.Designs.xiangshan
    in
    if verilog then print_string (Netlist.Verilog_gen.design_to_string design)
    else begin
      Format.printf "Storage elements of %s (%d bits total):@."
        config.Uarch.Config.name
        (Netlist.Memory_pass.total_bits design);
      List.iter
        (fun e -> Format.printf "  %a@." Netlist.Memory_pass.pp_element e)
        (Netlist.Memory_pass.run design)
    end
  in
  let verilog =
    Arg.(value & flag & info [ "verilog" ]
           ~doc:"Emit the Verilog skeleton view instead of the element list.")
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Inspect a core's storage elements or emit its Verilog skeleton.")
    Term.(const run $ core_arg $ verilog)

(* report *)
let report_cmd =
  let run cores out full =
    let configs =
      match cores with
      | [] -> [ Uarch.Config.boom; Uarch.Config.xiangshan ]
      | l -> List.map snd l
    in
    let report = Teesec.Verification_report.generate ~full_corpus:full configs in
    Obs.write_file ~path:out report;
    Format.printf "Wrote %s (%d bytes) covering %s.@." out (String.length report)
      (String.concat ", " (List.map (fun c -> c.Uarch.Config.name) configs))
  in
  let cores =
    Arg.(value & opt_all core_conv [] & info [ "core" ] ~docv:"CORE"
           ~doc:"Core(s) to cover (repeatable; default both).")
  in
  let out =
    Arg.(value & opt string "VERIFICATION_REPORT.md" & info [ "out"; "o" ]
           ~docv:"FILE" ~doc:"Output markdown file.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Generate the complete markdown verification report for one or more cores.")
    Term.(const run $ cores $ out $ full_arg)

(* profile: per-phase wall-time and allocation breakdown over small
   slices of every pipeline.  Unlike the other subcommands this always
   runs with an active sink — the timings are the point — and
   --trace/--metrics additionally export the collected data.  The
   checker phases re-check prepared simulation logs with both the
   indexed and the reference implementation, isolating checker cost
   from simulation cost. *)
let profile_cmd =
  let run config jobs budget faults repeat trace metrics =
    let obs = Obs.create () in
    let phases = ref [] in
    let phase name f =
      let g0 = Gc.quick_stat () in
      let result, secs = Obs.timed obs name f in
      let g1 = Gc.quick_stat () in
      phases :=
        ( name,
          secs,
          g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.major_words -. g0.Gc.major_words,
          g1.Gc.promoted_words -. g0.Gc.promoted_words )
        :: !phases;
      Obs.gc_sample obs ~phase:name;
      result
    in
    let slice = Teesec.Mitigation_eval.slice () in
    let (_ : Teesec.Campaign.result) =
      phase "campaign" (fun () -> Teesec.Campaign.run ~jobs ~obs config slice)
    in
    let outcomes =
      phase "runner" (fun () -> List.map (Teesec.Runner.run config) slice)
    in
    (* The snapshot engine over the same slice: the first pass replays
       and populates the cache (second-touch admission), the second pass
       restores from it — the delta against [runner] is the engine's
       win, and the restore histogram isolates per-restore cost. *)
    let snap = Teesec.Snapshot.create ~obs config in
    let run_snap () =
      List.iter
        (fun tc -> ignore (Teesec.Runner.run ~snapshots:snap config tc))
        slice
    in
    phase "snapshot/warmup" run_snap;
    phase "snapshot/hot" run_snap;
    let m =
      match Obs.metrics obs with Some m -> m | None -> assert false
    in
    let h_impl impl =
      Obs.Metrics.histogram m
        ~labels:[ ("impl", impl) ]
        ~help:"Wall time of one checker pass over a log."
        "teesec_checker_duration_seconds"
    in
    let h_indexed = h_impl "indexed" in
    let h_reference = h_impl "reference" in
    let check_all name histogram checkfn =
      phase name (fun () ->
          for _ = 1 to repeat do
            List.iter
              (fun (o : Teesec.Runner.outcome) ->
                let (_ : Teesec.Checker.finding list), _ =
                  Obs.timed obs ~histogram name (fun () ->
                      checkfn o.Teesec.Runner.log o.Teesec.Runner.tracker)
                in
                ())
              outcomes
          done)
    in
    check_all "checker/indexed" h_indexed Teesec.Checker.check;
    check_all "checker/reference" h_reference Teesec.Checker.check_reference;
    let (_ : Inject.Inject_campaign.result) =
      phase "inject" (fun () ->
          Inject.Inject_campaign.run ~jobs ~obs ~seed:0x5EEDL ~plans:faults
            config slice)
    in
    let (_ : Fuzz.Engine.report) =
      phase "fuzz" (fun () ->
          Fuzz.Engine.run ~jobs ~obs
            { Fuzz.Engine.default with Fuzz.Engine.budget }
            config)
    in
    let (_ : Symex.Explore.t) =
      phase "symex" (fun () -> Symex.Explore.run ~jobs ~obs config)
    in
    Format.printf "%-20s %10s %14s %14s %14s@." "phase" "time (s)"
      "minor words" "major words" "promoted";
    List.iter
      (fun (name, secs, minor, major, promoted) ->
        Format.printf "%-20s %10.4f %14.0f %14.0f %14.0f@." name secs minor
          major promoted)
      (List.rev !phases);
    let idx_t = Obs.Metrics.histogram_sum h_indexed in
    let ref_t = Obs.Metrics.histogram_sum h_reference in
    if idx_t > 0. then
      Format.printf
        "@.checker: indexed %.4fs vs reference %.4fs over %d passes each \
         (%.1fx speedup)@."
        idx_t ref_t
        (Obs.Metrics.histogram_count h_reference)
        (ref_t /. idx_t);
    let s = Teesec.Snapshot.stats snap in
    let h_restore = Obs.Metrics.histogram m "teesec_snapshot_restore_seconds" in
    Format.printf
      "@.snapshot: %d hit(s) / %d miss(es), %d store(s); %d gadget \
       replay(s) avoided vs %d replayed; restore cost %.4fs over %d \
       restore(s)@."
      s.Teesec.Snapshot.hits s.Teesec.Snapshot.misses
      s.Teesec.Snapshot.stores s.Teesec.Snapshot.restored_gadgets
      s.Teesec.Snapshot.replayed_gadgets
      (Obs.Metrics.histogram_sum h_restore)
      (Obs.Metrics.histogram_count h_restore);
    (* Per-gadget-family throughput over the slice, on the warm snapshot
       engine: the families are wildly uneven (a memset access gadget
       touches a whole line per access), and this is where that shows. *)
    let families =
      List.fold_left
        (fun acc tc ->
          let family = Teesec.Access_path.to_string tc.Teesec.Testcase.path in
          let cases = try List.assoc family acc with Not_found -> [] in
          (family, tc :: cases) :: List.remove_assoc family acc)
        [] slice
      |> List.rev_map (fun (family, cases) -> (family, List.rev cases))
      |> List.rev
    in
    Format.printf "@.%-28s %6s %10s %12s@." "gadget family" "cases" "time (s)"
      "cases/s";
    List.iter
      (fun (family, cases) ->
        let (), secs =
          Obs.timed obs ("family/" ^ family) (fun () ->
              for _ = 1 to repeat do
                List.iter
                  (fun tc ->
                    ignore
                      (Teesec.Campaign.eval_case ~obs ~snapshots:snap config
                         tc))
                  cases
              done)
        in
        let n = repeat * List.length cases in
        Format.printf "%-28s %6d %10.4f %12.1f@." family n secs
          (if secs > 0. then float_of_int n /. secs else 0.))
      families;
    save_obs_outputs obs ~trace ~metrics
  in
  let budget = Arg.(value & opt int 96 budget_info) in
  let faults = Arg.(value & opt int 5 faults_info) in
  let repeat =
    Arg.(value & opt int 5 & info [ "repeat" ] ~docv:"N"
           ~doc:"Checker passes per prepared log, per implementation.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the pipelines: per-phase wall time and allocation, GC \
          gauges, and the indexed-vs-reference checker split.")
    Term.(const run $ core_arg $ jobs_arg $ budget $ faults $ repeat
          $ trace_arg $ metrics_arg)

(* tables *)
let tables_cmd =
  let run () =
    print_string (Teesec.Tables.table1 ());
    print_newline ();
    print_string (Teesec.Tables.table2 ())
  in
  Cmd.v (Cmd.info "tables" ~doc:"Print the static tables (1 and 2).")
    Term.(const run $ const ())

(* {2 The campaign service (lib/serve)} *)

let socket_arg =
  Arg.(value & opt string "teesec.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket of the daemon.")

(* Poll briefly before failing: scripts background `teesec serve` and
   immediately submit, racing the daemon's bind. *)
let with_client ~socket_path f =
  match
    Serve.Client.connect_retry ~attempts:40 ~delay:0.05 ~socket_path ()
  with
  | Error e ->
    Format.printf "error: %s@." e;
    exit 1
  | Ok client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
        f client)

let pp_job_status (js : Serve.Protocol.job_status) =
  Format.printf "job %s: %s, %d shard(s), %d done, %d from store (%d%%)%s@."
    js.Serve.Protocol.js_job js.Serve.Protocol.js_kind
    js.Serve.Protocol.js_total js.Serve.Protocol.js_done
    js.Serve.Protocol.js_hits
    (if js.Serve.Protocol.js_total = 0 then 100
     else 100 * js.Serve.Protocol.js_hits / js.Serve.Protocol.js_total)
    (match js.Serve.Protocol.js_failed with
    | Some reason -> Printf.sprintf ", FAILED: %s" reason
    | None -> if js.Serve.Protocol.js_complete then ", complete" else "")

(* version: what the handshake negotiates — scripts parse this to pick a
   matching client, so the format is pinned by the smoke tests. *)
let version_cmd =
  let run () = Format.printf "%s@." Serve.Protocol.version_string in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the build and wire-protocol version.")
    Term.(const run $ const ())

(* serve: the daemon, in the foreground.  Runs until a client sends
   shutdown. *)
let serve_cmd =
  let run socket_path store workers http_port max_shard_cases max_retries
      quiet log_file log_level =
    if workers < 1 then begin
      Format.printf "error: --workers must be >= 1@.";
      exit 1
    end;
    let level =
      match Obs.Log.level_of_string log_level with
      | Some l -> l
      | None ->
        Format.printf "error: --log-level must be debug, info, warn or error@.";
        exit 1
    in
    let slog =
      match log_file with
      | None -> Obs.Log.null
      | Some path -> Obs.Log.open_file ~level path
    in
    let cfg =
      {
        (Serve.Daemon.default_config ~socket_path ~store_root:store) with
        Serve.Daemon.workers;
        http_port;
        max_shard_cases;
        max_retries;
        log =
          (if quiet then ignore
           else fun line -> Format.printf "teesec serve: %s@." line);
        slog;
      }
    in
    Fun.protect ~finally:(fun () -> Obs.Log.close slog) (fun () ->
        Serve.Daemon.run cfg)
  in
  let store =
    Arg.(value & opt string ".teesec-store" & info [ "store" ] ~docv:"DIR"
           ~doc:"Persistent content-addressed store directory.")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker processes (the scaling unit; each executes one \
                 shard at a time).")
  in
  let http_port =
    Arg.(value & opt (some int) None & info [ "http-port" ] ~docv:"PORT"
           ~doc:"Serve GET /metrics (Prometheus text) and /healthz on \
                 127.0.0.1:$(docv).")
  in
  let max_shard_cases =
    Arg.(value & opt int Serve.Planner.default_max_shard_cases
         & info [ "max-shard-cases" ] ~docv:"N"
             ~doc:"Test cases per shard (after the gadget-family split).")
  in
  let max_retries =
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Assignment attempts per shard before it is poisoned.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress lines.") in
  let log_file =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Write structured JSONL events (submit, dispatch, crash, \
                 backoff, poison, job_done, ...) to $(docv).")
  in
  let log_level =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Structured-log threshold: debug, info, warn or error.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign-service daemon: plan submitted requests into \
          shards, execute them on forked workers, cache verdicts in a \
          persistent content-addressed store.")
    Term.(const run $ socket_arg $ store $ workers $ http_port
          $ max_shard_cases $ max_retries $ quiet $ log_file $ log_level)

(* submit: the spec comes from the same terms the one-shot subcommands
   use, selected by --kind; flags of the other kinds are ignored, and
   only the selected spec is validated. *)
let write_file_report ~what path contents =
  Obs.write_file ~path contents;
  Format.printf "%s written to %s (%d bytes)@." what path
    (String.length contents)

(* Fetch a job's artifact and write what was asked for: the trace and
   waveforms the job collected, and the artifact itself unless [data] is
   off. *)
let fetch_job client ?(wait = true) ?(data = true) ~out ~trace_out ~wave_out
    job =
  match Serve.Client.results ~wait client job with
  | Error e ->
    Format.printf "error: %s@." e;
    exit 1
  | Ok (Error js) ->
    pp_job_status js;
    exit 1
  | Ok (Ok { Serve.Client.data = artifact; trace; wave }) -> (
    (match (trace_out, trace) with
    | Some path, Some json -> write_file_report ~what:"trace" path json
    | Some path, None ->
      Format.printf
        "warning: the job has no trace (submit it with --trace; a job \
         already complete collects none); %s not written@."
        path
    | None, _ -> ());
    (match (wave_out, wave) with
    | Some path, Some blob when blob <> "" -> save_wave_blob ~path blob
    | Some path, _ ->
      Format.printf
        "warning: the job has no waveforms (submit it with --wave; shards \
         served from the store contribute none); %s not written@."
        path
    | None, _ -> ());
    if data then
      match out with
      | Some path -> write_file_report ~what:"artifact" path artifact
      | None -> print_string artifact)

let submit_cmd =
  let run socket_path (spec, _config) wait out trace_out wave_out =
    with_client ~socket_path (fun client ->
        match
          Serve.Client.submit ~trace:(trace_out <> None)
            ~wave:(wave_out <> None) client spec
        with
        | Error e ->
          Format.printf "error: %s@." e;
          exit 1
        | Ok js ->
          pp_job_status js;
          if wait || trace_out <> None || wave_out <> None then
            fetch_job client ~data:wait ~out ~trace_out ~wave_out
              js.Serve.Protocol.js_job)
  in
  let spec =
    let kind =
      Arg.(value
           & opt (enum [ ("campaign", `Campaign); ("inject", `Inject); ("fuzz", `Fuzz) ])
               `Campaign
           & info [ "kind" ] ~docv:"KIND"
               ~doc:"Request kind: campaign, inject or fuzz.")
    in
    Term.(
      const (fun kind campaign inject fuzz ->
          match kind with
          | `Campaign -> campaign
          | `Inject -> inject
          | `Fuzz -> fuzz)
      $ kind $ campaign_spec $ inject_spec $ fuzz_spec)
  in
  let wait =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "wait" ]
                ~doc:"Block until the job completes and fetch the artifact." );
            (false, info [ "no-wait" ] ~doc:"Submit and return (default).");
          ])
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"With --wait: write the artifact to FILE instead of stdout.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Collect a merged cross-process Chrome trace of the job \
                 (daemon scheduling instants plus every worker's spans, \
                 clock-aligned) and write it to $(docv); implies waiting \
                 for completion.")
  in
  let wave_out =
    Arg.(value & opt (some string) None & info [ "wave" ] ~docv:"FILE"
           ~doc:"Run the job's shards with microarchitectural wave taps \
                 and write the assembled waveforms to $(docv) (VCD when \
                 it ends in .vcd); implies waiting for completion.  \
                 Shards satisfied from the verdict store contribute no \
                 streams.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign/inject/fuzz request to a running daemon.  \
          Shards already in the store are never re-executed; artifacts \
          are byte-identical to the one-shot subcommands.")
    Term.(const run $ socket_arg $ validated spec $ wait $ out $ trace_out
          $ wave_out)

(* status *)
let status_cmd =
  let run socket_path =
    with_client ~socket_path (fun client ->
        match Serve.Client.status client with
        | Error e ->
          Format.printf "error: %s@." e;
          exit 1
        | Ok st ->
          Format.printf "%s@." st.Serve.Protocol.st_version;
          Format.printf
            "workers %d (restarts %d); shards executed %d; store hits %d, \
             misses %d@."
            st.Serve.Protocol.st_workers
            st.Serve.Protocol.st_worker_restarts
            st.Serve.Protocol.st_shards_executed
            st.Serve.Protocol.st_store_hits st.Serve.Protocol.st_store_misses;
          (match st.Serve.Protocol.st_jobs with
          | [] -> Format.printf "no jobs@."
          | jobs -> List.iter pp_job_status jobs))
  in
  Cmd.v (Cmd.info "status" ~doc:"Print a running daemon's status and jobs.")
    Term.(const run $ socket_arg)

(* results *)
let results_cmd =
  let run socket_path job out no_wait trace_out wave_out =
    with_client ~socket_path (fun client ->
        fetch_job client ~wait:(not no_wait) ~out ~trace_out ~wave_out job)
  in
  let job =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB"
           ~doc:"Job id (printed by submit).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the artifact to FILE instead of stdout.")
  in
  let no_wait =
    Arg.(value & flag & info [ "no-wait" ]
           ~doc:"Do not block on an incomplete job; print its status and \
                 exit nonzero.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Also write the job's merged Chrome trace to $(docv) \
                 (requires the job to have been submitted with --trace).")
  in
  let wave_out =
    Arg.(value & opt (some string) None & info [ "wave" ] ~docv:"FILE"
           ~doc:"Also write the job's assembled waveforms to $(docv), VCD \
                 when it ends in .vcd (requires the job to have been \
                 submitted with --wave).")
  in
  Cmd.v
    (Cmd.info "results" ~doc:"Fetch a job's artifact from a running daemon.")
    Term.(const run $ socket_arg $ job $ out $ no_wait $ trace_out $ wave_out)

(* watch: live per-job shard progress, polled from status. *)
let watch_cmd =
  let render st =
    Format.printf "workers %d (restarts %d); shards executed %d; store \
                   hits %d, misses %d@."
      st.Serve.Protocol.st_workers st.Serve.Protocol.st_worker_restarts
      st.Serve.Protocol.st_shards_executed st.Serve.Protocol.st_store_hits
      st.Serve.Protocol.st_store_misses;
    match st.Serve.Protocol.st_jobs with
    | [] -> Format.printf "no jobs@."
    | jobs ->
      List.iter
        (fun (js : Serve.Protocol.job_status) ->
          let total = js.Serve.Protocol.js_total in
          let done_ = js.Serve.Protocol.js_done in
          let width = 24 in
          let filled =
            if total = 0 then width else width * done_ / total
          in
          let bar =
            String.concat ""
              [ String.make filled '#'; String.make (width - filled) '.' ]
          in
          Format.printf "job %s %s [%s] %d/%d done, %d running%s%s@."
            js.Serve.Protocol.js_job js.Serve.Protocol.js_kind bar done_
            total js.Serve.Protocol.js_running
            (if js.Serve.Protocol.js_poisoned > 0 then
               Printf.sprintf ", %d poisoned" js.Serve.Protocol.js_poisoned
             else "")
            (match js.Serve.Protocol.js_failed with
            | Some reason -> Printf.sprintf ", FAILED: %s" reason
            | None ->
              if js.Serve.Protocol.js_complete then ", complete" else ""))
        jobs
  in
  let all_settled st =
    List.for_all
      (fun (js : Serve.Protocol.job_status) ->
        js.Serve.Protocol.js_complete || js.Serve.Protocol.js_failed <> None)
      st.Serve.Protocol.st_jobs
  in
  let run socket_path interval once until_done =
    with_client ~socket_path (fun client ->
        let rec poll first =
          match Serve.Client.status client with
          | Error e ->
            Format.printf "error: %s@." e;
            exit 1
          | Ok st ->
            if not first then Format.printf "---@.";
            render st;
            if once then ()
            else if until_done && st.Serve.Protocol.st_jobs <> [] && all_settled st
            then ()
            else begin
              Unix.sleepf interval;
              poll false
            end
        in
        poll true)
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval"; "n" ] ~docv:"SECS"
           ~doc:"Seconds between polls.")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit.")
  in
  let until_done =
    Arg.(value & flag & info [ "until-done" ]
           ~doc:"Exit once every known job is complete or failed.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll a running daemon and render live per-job shard progress \
          (done/running/poisoned counts as a progress bar).")
    Term.(const run $ socket_arg $ interval $ once $ until_done)

(* trace-check: offline validation of a merged Chrome trace file.  The
   CI pipeline runs this against the trace submit --trace produced; the
   same checks back the test-suite's hand-rolled parser. *)
let trace_check_cmd =
  let fail fmt = Format.kasprintf (fun m -> Format.printf "error: %s@." m; exit 1) fmt in
  let run path quiet =
    let contents =
      match
        try Ok (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error e -> Error e
      with
      | Ok s -> s
      | Error e -> fail "%s" e
    in
    let doc =
      match Obs.Json.parse contents with
      | Ok doc -> doc
      | Error e -> fail "%s: invalid JSON: %s" path e
    in
    let events =
      match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
      | Some evs -> evs
      | None -> fail "%s: no traceEvents array" path
    in
    (* Stack discipline per (pid, tid): every E must close the innermost
       open B of the same name, and no B may stay open. *)
    let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let pids = Hashtbl.create 8 in
    let stack_for key =
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks key s;
        s
    in
    List.iteri
      (fun i ev ->
        let str name = Option.bind (Obs.Json.member name ev) Obs.Json.to_string in
        let num name = Option.bind (Obs.Json.member name ev) Obs.Json.to_number in
        let ph = match str "ph" with Some p -> p | None -> fail "event %d: no ph" i in
        let name = match str "name" with Some n -> n | None -> fail "event %d: no name" i in
        let pid =
          match num "pid" with
          | Some p -> int_of_float p
          | None -> fail "event %d: no pid" i
        in
        let tid =
          match num "tid" with
          | Some t -> int_of_float t
          | None -> fail "event %d: no tid" i
        in
        Hashtbl.replace pids pid ();
        (match ph with
        | "M" -> ()
        | _ when num "ts" = None -> fail "event %d (%s): no ts" i name
        | "B" ->
          let s = stack_for (pid, tid) in
          s := name :: !s
        | "E" -> (
          let s = stack_for (pid, tid) in
          match !s with
          | top :: rest when top = name -> s := rest
          | top :: _ ->
            fail "event %d: E %S does not match open span %S (pid %d tid %d)"
              i name top pid tid
          | [] -> fail "event %d: E %S with no open span (pid %d tid %d)" i name pid tid)
        | "i" -> ()
        | other -> fail "event %d: unknown phase %S" i other))
      events;
    Hashtbl.iter
      (fun (pid, tid) s ->
        match !s with
        | [] -> ()
        | names ->
          fail "unclosed span(s) %s (pid %d tid %d)"
            (String.concat ", " (List.map (Printf.sprintf "%S") names))
            pid tid)
      stacks;
    if not quiet then
      Format.printf "trace OK: %d event(s) across %d process(es)@."
        (List.length events) (Hashtbl.length pids)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Chrome trace-event JSON file to validate.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No output on success.") in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON file: parseable, every \
          event carries ph/name/pid/tid (and ts), and begin/end spans \
          balance per (pid, tid) track.  Exits nonzero on the first \
          violation.")
    Term.(const run $ path $ quiet)

(* explain: reconstruct the causal chain behind one finding id. *)
let explain_cmd =
  let run finding_id verify emit_vcd =
    match Teesec.Provenance.parse_id finding_id with
    | Error e ->
      Format.printf "error: %s@." e;
      exit 1
    | Ok (core, _case, tcid, _structure) -> (
      match Uarch.Config.of_core_name core with
      | None ->
        Format.printf "error: unknown core %S@." core;
        exit 1
      | Some config -> (
        (* The id names the test case by its corpus id; look in the
           representative slice first (the default campaign corpus),
           then the full grid. *)
        let candidates =
          List.filter
            (fun (tc : Teesec.Testcase.t) -> tc.Teesec.Testcase.id = tcid)
            (Teesec.Mitigation_eval.slice () @ Teesec.Fuzzer.corpus ())
        in
        (* The chains come from the campaign's own per-case outcome, so
           the one printed is the campaign's chain by construction. *)
        let matching ?snapshots ?wave (tc : Teesec.Testcase.t) =
          let outcome = Teesec.Runner.run ?snapshots ?wave config tc in
          let co =
            Teesec.Campaign.outcome_of_run ~config outcome
              (Teesec.Checker.check outcome.Teesec.Runner.log
                 outcome.Teesec.Runner.tracker)
          in
          let matches =
            List.filter
              (fun (p : Teesec.Provenance.t) ->
                p.Teesec.Provenance.p_id = finding_id)
              co.Teesec.Campaign.co_provenance
          in
          (outcome, matches)
        in
        let explain_one tc =
          match matching ~wave:(emit_vcd <> None) tc with
          | _, [] -> None
          | outcome, matches -> Some (tc, outcome, matches)
        in
        match List.find_map explain_one candidates with
        | None ->
          Format.printf
            "no finding %s: the test case does not surface it on a clean \
             run (or the id names an unknown test case)@."
            finding_id;
          exit 1
        | Some (tc, outcome, matches) ->
          if List.length matches > 1 then
            Format.printf
              "%d finding records share this id (one per leaked secret word \
               and detection kind):@.@."
              (List.length matches);
          List.iter
            (fun p -> Format.printf "%a@." Teesec.Provenance.pp_chain p)
            matches;
          (match emit_vcd with
          | None -> ()
          | Some path ->
            (* Clip the case's waves to the finding's window (plus the
               context switches before it) — the minimal witness that
               still renders meaningfully. *)
            let p = List.hd matches in
            let lo =
              match p.Teesec.Provenance.p_window with
              | Some (a, _) -> a
              | None -> 0
            in
            let clip = (lo, p.Teesec.Provenance.p_cycle) in
            write_wave_file ~path
              [
                ( p.Teesec.Provenance.p_id,
                  Wave.Event.of_log ~clip outcome.Teesec.Runner.log );
              ]);
          if verify then begin
            (* Replay through the snapshot engine (the other prefix
               path) and assert the causal chain reproduces exactly. *)
            let snapshots = Teesec.Snapshot.create config in
            let _, replayed = matching ~snapshots tc in
            if
              List.length replayed = List.length matches
              && List.for_all2 Teesec.Provenance.equal matches replayed
            then Format.printf "verify OK: provenance replays exactly@."
            else begin
              Format.printf "verify FAILED: replayed provenance differs@.";
              exit 1
            end
          end))
  in
  let finding_id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FINDING"
           ~doc:"Finding id, as recorded in campaign/inject/fuzz \
                 provenance: core/case/testcase-id/structure \
                 (e.g. boom/D1/37/line-fill-buffer).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Re-run the test case through the snapshot engine and \
                 assert the causal chain replays byte-for-byte; exits \
                 nonzero otherwise.")
  in
  let emit_vcd =
    Arg.(value & opt (some string) None & info [ "emit-vcd" ] ~docv:"FILE"
           ~doc:"Write a minimal VCD witness — the wave events inside \
                 the finding's residue window — to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run one finding's test case and print the causal chain \
          behind the verdict: the writing access (gadget, cycle, \
          structure, entry), the surviving-residue window, and the \
          observing check.")
    Term.(const run $ finding_id $ verify $ emit_vcd)

(* vcd-check: strict validation of an exported VCD file. *)
let vcd_check_cmd =
  let run path quiet =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    match Wave.Vcd.validate contents with
    | Error e ->
      Format.printf "invalid VCD %s: %s@." path e;
      exit 1
    | Ok stats ->
      if not quiet then
        Format.printf
          "VCD OK: %d signal(s), %d value change(s), last timestamp %d%s@."
          stats.Wave.Vcd.signals stats.Wave.Vcd.changes
          stats.Wave.Vcd.last_time
          (if stats.Wave.Vcd.has_timescale then "" else " (no timescale)")
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"VCD file to validate (e.g. one written by campaign \
                 --wave out.vcd or explain --emit-vcd).")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No output on success.") in
  Cmd.v
    (Cmd.info "vcd-check"
       ~doc:
         "Validate an exported VCD waveform: header shape, declared \
          signals, monotone timestamps, and that every value change \
          references a declared signal.  Exits nonzero on the first \
          violation.")
    Term.(const run $ path $ quiet)

(* shutdown *)
let shutdown_cmd =
  let run socket_path =
    with_client ~socket_path (fun client ->
        match Serve.Client.shutdown client with
        | Error e ->
          Format.printf "error: %s@." e;
          exit 1
        | Ok () -> Format.printf "daemon shutting down@.")
  in
  Cmd.v (Cmd.info "shutdown" ~doc:"Ask a running daemon to exit.")
    Term.(const run $ socket_arg)

let subcommands =
  [
    plan_cmd;
    gadgets_cmd;
    testcase_cmd;
    check_cmd;
    campaign_cmd;
    fuzz_cmd;
    corpus_min_cmd;
    symex_cmd;
    inject_cmd;
    mitigations_cmd;
    profile_cmd;
    coverage_cmd;
    netlist_cmd;
    report_cmd;
    scenario_cmd;
    tables_cmd;
    version_cmd;
    serve_cmd;
    submit_cmd;
    status_cmd;
    results_cmd;
    watch_cmd;
    trace_check_cmd;
    explain_cmd;
    vcd_check_cmd;
    shutdown_cmd;
  ]

let command_names = List.map Cmd.name subcommands

let cmd =
  let doc = "TEESec: pre-silicon vulnerability discovery for trusted execution environments" in
  let info = Cmd.info "teesec_cli" ~version:Serve.Protocol.build_version ~doc in
  Cmd.group info subcommands

let eval ?argv () =
  match argv with Some argv -> Cmd.eval ~argv cmd | None -> Cmd.eval cmd

(* For the smoke tests: evaluate with help/usage/error output captured
   instead of written to the process channels.  The subcommand bodies
   themselves still print to stdout, but --help and CLI errors never
   reach a body.  A bare [--help] is rewritten to [--help=plain]: under
   auto format cmdliner may hand the page to a pager on the real stdout,
   which would bypass the capture formatter. *)
let eval_captured ~argv =
  let argv =
    Array.map (fun a -> if a = "--help" then "--help=plain" else a) argv
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let status = Cmd.eval ~help:fmt ~err:fmt ~argv cmd in
  Format.pp_print_flush fmt ();
  (status, Buffer.contents buf)
