open! Import

type options = {
  seed : Word.t;
  budget : int;
  batch : int;
  energy : int;
  stop_on_full : bool;
}

let default =
  { seed = 0x5EEDL; budget = 250; batch = 32; energy = 80; stop_on_full = false }

type discovery = { case : Case.id; at : int; testcase : string }

type report = {
  config : Config.t;
  options : options;
  executed : int;
  edges_covered : int;
  bits_covered : int;
  corpus_entries : int;
  distilled : int;
  discoveries : discovery list;
  found : Case.id list;
  cases_to_full_table3 : int option;
  residue_warnings : int;
  total_cycles : int;
  executed_cases : Testcase.t list;
  corpus_cases : Testcase.t list;
  waves : (string * string) list;
  provenance : Provenance.t list;
      (* Causal chains of the discovering runs, one batch of records per
         discovery, in discovery order. *)
}

(* Round-robin over the families (every path's first grid entry, then
   every path's second): the whole verification plan is touched within
   the first |paths| executions, which is where the guided mode's
   head start over blind sampling comes from. *)
let seed_corpus () =
  let grids = List.map (fun path -> (path, Fuzzer.grid path)) Access_path.all in
  let id = ref 0 in
  List.concat_map
    (fun rank ->
      List.filter_map
        (fun (path, grid) ->
          Option.map
            (fun params ->
              let tc = Assembler.assemble ~id:!id path ~params in
              incr id;
              tc)
            (List.nth_opt grid rank))
        grids)
    [ 0; 1 ]

(* Observability handles, registered once per run from the orchestrating
   domain (so registration order is stable); [None] when the sink is
   off.  Families are keyed in declaration order, matching
   [Schedule.stats]. *)
type instruments = {
  i_execs : Obs.Metrics.counter;
  i_novelty : Obs.Metrics.counter;
  i_edges : Obs.Metrics.gauge;
  i_bits : Obs.Metrics.gauge;
  i_corpus : Obs.Metrics.gauge;
  i_families : (Access_path.t * (Obs.Metrics.gauge * Obs.Metrics.gauge * Obs.Metrics.gauge)) list;
      (* trials, reward, ucb per family *)
}

let instruments obs =
  match Obs.metrics obs with
  | None -> None
  | Some m ->
    Some
      {
        i_execs =
          Obs.Metrics.counter m ~help:"Fuzz candidates executed."
            "teesec_fuzz_executions_total";
        i_novelty =
          Obs.Metrics.counter m
            ~help:"New coverage bucket bits discovered."
            "teesec_fuzz_novelty_bits_total";
        i_edges =
          Obs.Metrics.gauge m ~help:"Distinct coverage edges hit so far."
            "teesec_fuzz_edges_covered";
        i_bits =
          Obs.Metrics.gauge m ~help:"Coverage bucket bits set so far."
            "teesec_fuzz_bits_covered";
        i_corpus =
          Obs.Metrics.gauge m ~help:"Interesting corpus entries queued."
            "teesec_fuzz_corpus_entries";
        i_families =
          List.map
            (fun path ->
              let labels = [ ("family", Access_path.to_string path) ] in
              ( path,
                ( Obs.Metrics.gauge m ~labels
                    ~help:"UCB1 trials per gadget family."
                    "teesec_fuzz_family_trials",
                  Obs.Metrics.gauge m ~labels
                    ~help:"UCB1 novelty reward per gadget family."
                    "teesec_fuzz_family_reward",
                  Obs.Metrics.gauge m ~labels
                    ~help:"UCB1 score per gadget family (NaN until tried)."
                    "teesec_fuzz_family_ucb" ) ))
            Access_path.all;
      }

let run ?(progress = fun _ _ _ -> ()) ?(jobs = 1) ?(obs = Obs.noop) ?snapshots
    ?wave ?seeds options config =
  if options.budget < 0 then invalid_arg "Engine.run: negative budget";
  if options.batch <= 0 then invalid_arg "Engine.run: batch must be positive";
  if options.energy < 0 || options.energy > 100 then
    invalid_arg "Engine.run: energy must be in 0..100";
  let rng_state = ref options.seed in
  let bitmap = Bitmap.create () in
  let sched = Schedule.create () in
  let executed = ref 0 in
  let residue = ref 0 in
  let cycles = ref 0 in
  let discoveries = ref [] in
  let found = Hashtbl.create 16 in
  let full_at = ref None in
  let kept = ref [] in
  let stream = ref [] in
  let waves = ref [] in
  let provenance = ref [] in
  let expected =
    List.filter (fun c -> Case.expected c config.Config.kind) Case.all
  in
  (* The guided mode starts from a deterministic seed corpus covering
     every gadget family; the blind baseline (energy 0) starts cold so
     its stream is exactly [Fuzzer.random_corpus]. *)
  let pending_seeds =
    (* External seeds (a symex-synthesised corpus, say) run after the
       built-in ones, so a seeded campaign's stream is a superset whose
       prefix is exactly the unseeded one — discoveries the baseline
       makes inside that prefix happen at the same executed count.  With
       [seeds] absent the stream is exactly the historical one, and the
       blind baseline stays cold either way. *)
    ref
      (if options.energy > 0 then
         seed_corpus () @ Option.value seeds ~default:[]
       else [])
  in
  let explore ~id = Fuzzer.random_case ~rng_state ~id in
  let generate ~id =
    match !pending_seeds with
    | tc :: rest ->
      pending_seeds := rest;
      (* Renumber: seed ids must agree with the executed stream. *)
      { tc with Testcase.id = id }
    | [] ->
      if options.energy = 0 then explore ~id
      else if Rng.below ~rng_state 100 >= options.energy then explore ~id
      else (
        match Schedule.pick_family sched with
        | None -> explore ~id
        | Some family -> (
          match Schedule.pick_entry sched ~rng_state ~now:!executed family with
          | None -> explore ~id
          | Some entry -> (
            let op = Rng.pick ~rng_state Mutator.all in
            match
              Mutator.apply op ~rng_state ~pool:(Schedule.pool sched) ~id
                entry.Schedule.testcase
            with
            | Some tc -> tc
            | None -> explore ~id)))
  in
  (* Merge one observation; sequential and candidate-ordered, so the
     whole accumulated state is identical for every job count. *)
  let merge (tc, { Observe.outcome = co; edges }) =
    let at = !executed + 1 in
    executed := at;
    stream := tc :: !stream;
    if co.Campaign.co_wave <> "" then
      waves := (co.Campaign.co_name, co.Campaign.co_wave) :: !waves;
    residue := !residue + co.Campaign.co_residue;
    cycles := !cycles + co.Campaign.co_cycles;
    let novelty = Bitmap.add bitmap edges in
    Schedule.register_exec sched ~family:tc.Testcase.path ~reward:novelty;
    if novelty > 0 then begin
      Schedule.add_entry sched
        { Schedule.testcase = tc; novelty; born = at - 1 };
      kept := (tc, edges) :: !kept
    end;
    List.iter
      (fun case ->
        if not (Hashtbl.mem found case) then begin
          Hashtbl.replace found case ();
          discoveries :=
            { case; at; testcase = co.Campaign.co_name } :: !discoveries;
          List.iter
            (fun (p : Provenance.t) ->
              if p.Provenance.p_case = Case.to_string case then
                provenance := p :: !provenance)
            co.Campaign.co_provenance;
          if
            !full_at = None
            && List.for_all (fun c -> Hashtbl.mem found c) expected
          then full_at := Some at
        end)
      co.Campaign.co_cases;
    progress at options.budget
      (Printf.sprintf "%s%s  [%d new coverage bit(s), %d edges total]"
         co.Campaign.co_name
         (match co.Campaign.co_cases with
         | [] -> ""
         | cases ->
           "  -> " ^ String.concat " " (List.map Case.to_string cases))
         novelty (Bitmap.covered_edges bitmap))
  in
  let ins = instruments obs in
  (* Push the batch's accumulated state into the gauges.  Sampling reads
     scheduler state without mutating it, so the candidate stream is
     unchanged by observability. *)
  let sample_gauges () =
    Option.iter
      (fun i ->
        Obs.Metrics.set i.i_edges (float_of_int (Bitmap.covered_edges bitmap));
        Obs.Metrics.set i.i_bits (float_of_int (Bitmap.covered_bits bitmap));
        Obs.Metrics.set i.i_corpus (float_of_int (List.length !kept));
        List.iter
          (fun (fs : Schedule.family_stats) ->
            match List.assq_opt fs.Schedule.family i.i_families with
            | None -> ()
            | Some (g_trials, g_reward, g_ucb) ->
              Obs.Metrics.set g_trials (float_of_int fs.Schedule.trials);
              Obs.Metrics.set g_reward (float_of_int fs.Schedule.reward);
              Obs.Metrics.set g_ucb
                (Option.value fs.Schedule.ucb ~default:Float.nan))
          (Schedule.stats sched))
      ins
  in
  let stop () = options.stop_on_full && !full_at <> None in
  let batch_no = ref 0 in
  while !executed < options.budget && not (stop ()) do
    incr batch_no;
    Obs.begin_span obs
      ~args:[ ("batch", Obs.Tracer.Int !batch_no) ]
      "fuzz/batch";
    let n = min options.batch (options.budget - !executed) in
    (* Generate the whole batch before executing any of it: candidate
       generation reads corpus state as of the previous batch, so the
       batch composition is independent of the job count. *)
    let candidates =
      Obs.span obs "fuzz/generate" (fun () ->
          let candidates = ref [] in
          for i = 0 to n - 1 do
            candidates := generate ~id:(!executed + i) :: !candidates
          done;
          List.rev !candidates)
    in
    let observations =
      Obs.span obs "fuzz/execute" (fun () ->
          Parallel.Pool.parmap ~obs ~jobs
            (fun tc -> (tc, Observe.run ?snapshots ?wave config tc))
            candidates)
    in
    let novelty_before = Bitmap.covered_bits bitmap in
    Obs.span obs "fuzz/merge" (fun () -> List.iter merge observations);
    Option.iter
      (fun i ->
        Obs.Metrics.inc ~by:(List.length observations) i.i_execs;
        Obs.Metrics.inc
          ~by:(Bitmap.covered_bits bitmap - novelty_before)
          i.i_novelty)
      ins;
    sample_gauges ();
    Obs.gc_sample obs ~phase:"fuzz";
    Obs.end_span obs "fuzz/batch"
  done;
  let kept = List.rev !kept in
  {
    config;
    options;
    executed = !executed;
    edges_covered = Bitmap.covered_edges bitmap;
    bits_covered = Bitmap.covered_bits bitmap;
    corpus_entries = List.length kept;
    distilled = List.length (Distill.minimise (List.map snd kept));
    discoveries = List.rev !discoveries;
    found = List.sort Case.compare (Hashtbl.fold (fun c () acc -> c :: acc) found []);
    cases_to_full_table3 = !full_at;
    residue_warnings = !residue;
    total_cycles = !cycles;
    executed_cases = List.rev !stream;
    corpus_cases = List.map fst kept;
    waves = List.rev !waves;
    provenance = List.rev !provenance;
  }
