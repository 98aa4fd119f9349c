(* The repository benchmark.

     run.exe --workload W --seed N --seconds S --trace 0|1
         [--record FILE] [--trace-file FILE]
     run.exe all --seed N [--seconds S] [--trace 0|1] [--runs R] --out FILE
     run.exe agree A.json B.json
     run.exe check

   One workload per process.  Every operation runs in a child forked from
   this small process — a fresh heap, as a CLI invocation has — first an
   untimed warm-up per core that fixes the reference outputs, then
   repetitions (one operation per core) for S seconds, in a closed loop
   from one caller.  With [--trace 0] the run reports the end-to-end
   metrics: each core's operation time as the lower quartile of the run's
   operations, set-up (timed in fresh processes between repetitions) and
   peak memory as medians.  With [--trace 1] each repetition runs both
   cores untraced and then traced, and the run reports the per-layer
   split.  Every line is [workload metric value unit n]; the last line is
   one JSON object: correct, attempted, failed and the metrics.

   [all] runs every workload R times, each in a fresh process, and writes
   their records to one JSON file; [agree] compares two such files against
   the bounds in BENCHMARK.json; [check] is the benchmark's self-test. *)

(* Set-up samples taken before the first repetition; one more precedes
   each repetition, so a run's set-up median spans the same stretch of
   time as its operations. *)
let setup_samples = 10
let default_seconds = 25.

(* A metric of one run: its samples and the statistic it reports. *)
type metric = { name : string; unit_ : string; samples : float list; value : float }

let metric ?(stat = Measure.median) (name, unit_) samples =
  { name; unit_; samples; value = (if samples = [] then Float.nan else stat samples) }

let hw_threads = Domain.recommended_domain_count ()

(* {1 Running one workload} *)

let exe = Sys.executable_name

let spawn_wait args =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (String.concat " " ("child failed:" :: args))
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

(* Set-up as a user pays it once per invocation: a fresh process that
   starts the runtime and the libraries, builds the workload's inputs from
   the seed, and exits. *)
let time_setup (w : Workloads.t) ~seed =
  let t0 = Measure.now () in
  spawn_wait [ "--setup-only"; "--workload"; w.Workloads.name; "--seed"; Int64.to_string seed ];
  Measure.now () -. t0

(* What a child reports about the one operation it ran. *)
type op_result = {
  ms : float;
  outcome : Workloads.outcome;
  rss_kb : int;
  minor_words : float;
  major_collections : int;
  self_ns : (string * int64) list;  (** Layer self times; traced only. *)
  events : int * Obs.Tracer.event list;  (** Kept for [--trace-file]. *)
}

let is_layer name = List.mem name Workloads.layer_spans

type mode = Untraced | Traced of { keep_events : bool }

let run_op (inst : Workloads.instance) mode i c =
  Workloads.in_child (fun () ->
      let obs = if mode = Untraced then Obs.noop else Obs.create () in
      let start = match mode with Untraced -> inst.Workloads.op i c | Traced _ -> inst.Workloads.traced obs i c in
      let words = Gc.minor_words () and majors = (Gc.quick_stat ()).Gc.major_collections in
      let t0 = Measure.now () in
      Obs.begin_span obs ~args:[ ("core", Obs.Tracer.String (Workloads.core_name c)) ] "op";
      let summarise = start () in
      Obs.end_span obs "op";
      let ms = (Measure.now () -. t0) *. 1000. in
      let minor_words = Gc.minor_words () -. words in
      let major_collections = (Gc.quick_stat ()).Gc.major_collections - majors in
      let rss_kb = inst.Workloads.peak_rss_kb () in
      let outcome = summarise () in
      let events = match Obs.tracer obs with Some t -> Obs.Tracer.events t | None -> [] in
      {
        ms;
        outcome;
        rss_kb;
        minor_words;
        major_collections;
        self_ns = List.of_seq (Hashtbl.to_seq (Measure.self_times ~is_layer events));
        events = (Unix.getpid (), if mode = Traced { keep_events = true } then events else []);
      })

type run = {
  inst : Workloads.instance;
  mutable attempted : int;
  mutable failed : int;
  references : (string * Workloads.outcome) list;
}

(* One operation, counted and checked against the warm-up's output. *)
let attempt run mode i c =
  run.attempted <- run.attempted + 1;
  match run_op run.inst mode i c with
  | Some r
    when r.outcome.Workloads.valid
         && Some r.outcome.Workloads.key
            = Option.map (fun o -> o.Workloads.key) (List.assoc_opt c.Uarch.Config.name run.references) ->
    Some r
  | _ ->
    run.failed <- run.failed + 1;
    None

(* Repetitions [rep 1], [rep 2], ... until [seconds] have passed (at
   least one); repetition 0 is the warm-up. *)
let repeat ~seconds rep =
  let t0 = Measure.now () in
  let rec go n = if n = 1 || Measure.now () -. t0 < seconds then (rep n; go (n + 1)) in
  go 1

let samples_table () =
  let tbl = Hashtbl.create 64 in
  let add name v = Hashtbl.replace tbl name (v :: Option.value (Hashtbl.find_opt tbl name) ~default:[]) in
  let get name = Option.value (Hashtbl.find_opt tbl name) ~default:[] in
  (add, get)

let op_metric c = Workloads.core_name c ^ "_op_ms"

(* Per repetition: a set-up sample, each core's operation time, and the
   larger of the two operations' peak memory.

   The 2-vCPU VM this benchmark was sized on is shared: other tenants slow
   every process on it for seconds at a time (the same fixed loop takes
   150 ms or 220 ms depending on the moment) and never speed one up.  A run's
   median operation lands in such a slow phase whenever the phase covers
   half the run; its lower quartile stays on the uncontended time unless
   slow phases cover three quarters of it. *)
let untraced_pass (w : Workloads.t) ~seed run ~seconds =
  let add, get = samples_table () in
  for _ = 1 to setup_samples do
    add "setup_s" (time_setup w ~seed)
  done;
  repeat ~seconds (fun i ->
      add "setup_s" (time_setup w ~seed);
      let rss =
        List.fold_left
          (fun rss c ->
            match attempt run Untraced i c with
            | Some r ->
              add (op_metric c) r.ms;
              max rss r.rss_kb
            | None -> rss)
          0 Workloads.cores
      in
      add "peak_rss_mb" (float_of_int rss /. 1024.));
  List.map
    (fun ((name, _) as m) ->
      let is_op = List.exists (fun c -> op_metric c = name) Workloads.cores in
      metric ~stat:(if is_op then Measure.lower_quartile else Measure.median) m (get name))
    Workloads.end_to_end

let traced_pass run ~seconds ~keep_events =
  let add, get = samples_table () in
  let kept = ref [] in
  let sum f l = List.fold_left (fun acc r -> acc +. f r) 0. l in
  repeat ~seconds (fun i ->
      let each mode = List.filter_map (fun c -> attempt run mode i c) Workloads.cores in
      let untraced = each Untraced in
      let traced = each (Traced { keep_events }) in
      if List.length untraced = List.length Workloads.cores && List.length traced = List.length Workloads.cores
      then begin
        add "gc.minor_words" (sum (fun r -> r.minor_words) untraced);
        add "gc.major_collections" (sum (fun r -> float_of_int r.major_collections) untraced);
        add "trace_overhead" (sum (fun r -> r.ms) traced /. sum (fun r -> r.ms) untraced);
        let self span =
          sum (fun r -> Int64.to_float (Option.value (List.assoc_opt span r.self_ns) ~default:0L)) traced
        in
        let total = List.fold_left (fun acc span -> acc +. self span) 0. Workloads.layer_spans in
        List.iter (fun span -> add (Workloads.share_metric span) (self span /. total)) Workloads.layer_spans;
        add "runner.access.share"
          (List.fold_left (fun acc f -> acc +. self (Workloads.access_span f)) 0. Workloads.families /. total);
        if keep_events then kept := List.map (fun r -> r.events) traced @ !kept
      end);
  (* Exact counts come from the warm-up, one operation per core. *)
  let count name =
    List.fold_left
      (fun acc (_, o) -> acc +. Option.value (List.assoc_opt name o.Workloads.counts) ~default:0.)
      0. run.references
  in
  ( List.map
      (fun ((name, _) as m) -> metric m (match get name with [] -> [ count name ] | l -> l))
      Workloads.per_layer,
    List.rev !kept )

let write_trace ~path ~workload processes =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Obs.Tracer.chrome_json_of_processes
           (List.map (fun (pid, events) -> (pid, "perfbench " ^ workload, events)) processes)))

(* One run's value of a metric, the unit [all] aggregates over runs. *)
let record_json ~(w : Workloads.t) ~seed ~trace (m : metric) =
  Obs.Json.Obj
    [
      ("workload", Str w.Workloads.name);
      ("metric", Str m.name);
      ("config", Str (w.Workloads.config ^ if trace then " traced" else ""));
      ("unit", Str m.unit_);
      ("seed", Str (Printf.sprintf "0x%LX" seed));
      ("value", Num m.value);
    ]

exception Time_limit

let run_workload (w : Workloads.t) ~seed ~seconds ~trace ~record ~trace_file =
  (* A stuck operation must still end the run inside its time limit: the
     exception kills the running child and unwinds through [stop]. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Time_limit));
  ignore (Unix.alarm (max 170 (int_of_float seconds + 110)));
  let inst = w.Workloads.setup ~seed in
  let run, metrics =
    Fun.protect ~finally:inst.Workloads.stop (fun () ->
        let prepared = inst.Workloads.prepare () in
        let warm = List.map (fun c -> (c, run_op inst Untraced 0 c)) Workloads.cores in
        let references =
          List.filter_map
            (fun ((c : Uarch.Config.t), r) ->
              match r with
              | Some r when prepared && r.outcome.Workloads.valid -> Some (c.Uarch.Config.name, r.outcome)
              | _ -> None)
            warm
        in
        let run = { inst; attempted = 0; failed = 0; references } in
        if not trace then (run, untraced_pass w ~seed run ~seconds)
        else begin
          let metrics, events = traced_pass run ~seconds ~keep_events:(trace_file <> None) in
          Option.iter (fun path -> write_trace ~path ~workload:w.Workloads.name events) trace_file;
          (run, metrics)
        end)
  in
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s %d\n" w.Workloads.name m.name
        (Measure.json_number m.value) m.unit_ (List.length m.samples))
    metrics;
  let attempted = max 1 run.attempted in
  let correct = run.failed = 0 && List.for_all (fun m -> Float.is_finite m.value) metrics in
  Option.iter
    (fun path ->
      let failed_ratio =
        metric ("failed_ratio", "failed/attempted") [ float_of_int run.failed /. float_of_int attempted ]
      in
      let records =
        List.filter_map
          (fun m -> if m.samples = [] then None else Some (record_json ~w ~seed ~trace m))
          (metrics @ [ failed_ratio ])
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          List.iter (fun r -> output_string oc (Measure.json_to_string r ^ "\n")) records))
    record;
  print_endline
    (Measure.json_to_string
       (Obs.Json.Obj
          [
            ("correct", Bool correct);
            ("attempted", Num (float_of_int attempted));
            ("failed", Num (float_of_int run.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obs.Json.Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
                   metrics) );
          ]))

(* {1 all: every workload in its own processes} *)

let load_json path =
  match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let str key v = Option.value (Obs.Json.string_field key v) ~default:""
let num key v = Option.value (Obs.Json.number_field key v) ~default:Float.nan
let list key v = Option.value (Option.bind (Obs.Json.member key v) Obs.Json.to_list) ~default:[]

let git_rev () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |] in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

(* [runs] fresh processes per workload; each appends its per-run values
   to a parts file, and the record kept for a (workload, metric) is the
   median and quartiles of the per-run values — run-to-run spread, which
   is what [agree] judges. *)
let run_all ~seed ~seconds ~trace ~runs ~out =
  let parts = out ^ ".parts" in
  if Sys.file_exists parts then Sys.remove parts;
  List.iter
    (fun (w : Workloads.t) ->
      for _ = 1 to runs do
        spawn_wait
          [
            "--workload"; w.Workloads.name; "--seed"; Int64.to_string seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--record"; parts;
          ]
      done)
    Workloads.all;
  let per_run =
    In_channel.with_open_text parts In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map Obs.Json.parse_exn
  in
  Sys.remove parts;
  let key r = (str "workload" r, str "metric" r) in
  let keys = List.fold_left (fun acc r -> if List.mem (key r) acc then acc else key r :: acc) [] per_run in
  let rev = git_rev () in
  let records =
    List.rev_map
      (fun k ->
        let rs = List.filter (fun r -> key r = k) per_run in
        let s = Measure.summarize (List.map (num "value") rs) in
        let first = List.hd rs in
        Measure.json_to_string
          (Obs.Json.Obj
             [
               ("workload", Str (fst k));
               ("metric", Str (snd k));
               ("config", Str (str "config" first));
               ("unit", Str (str "unit" first));
               ("median", Num s.Measure.median);
               ("q1", Num s.Measure.q1);
               ("q3", Num s.Measure.q3);
               ("min", Num s.Measure.min);
               ("max", Num s.Measure.max);
               ("n", Num (float_of_int s.Measure.n));
               ("seed", Str (str "seed" first));
               ("git_rev", Str rev);
               ("hw_threads", Num (float_of_int hw_threads));
             ]))
      keys
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc ("[\n  " ^ String.concat ",\n  " records ^ "\n]\n"))

(* {1 agree: two record files against the benchmark's bounds} *)

(* (metric, (better, bound)) for every bounded metric; a failed operation
   is never tolerated. *)
let bounds () =
  ("failed_ratio", ("lower", 0.))
  :: List.map (fun m -> (str "name" m, (str "better" m, num "bound" m))) (list "end_to_end" (load_json "BENCHMARK.json"))

(* For every bounded (workload, metric) of [a_path]: both medians with
   their quartiles, the change, and a verdict — unresolved when either
   spread (q3 - q1 over the median) is wider than the bound, regressed
   when [b_path] is worse by more than the bound.  True when every pair
   is ok. *)
let agree a_path b_path =
  let bounds = bounds () in
  let records path =
    List.filter_map
      (fun r ->
        Option.map (fun b -> ((str "workload" r, str "metric" r), (r, b))) (List.assoc_opt (str "metric" r) bounds))
      (Option.value (Obs.Json.to_list (load_json path)) ~default:[])
  in
  let b_records = records b_path in
  let spread r = if num "median" r = 0. then 0. else (num "q3" r -. num "q1" r) /. num "median" r in
  let show r =
    Printf.sprintf "%s [%s, %s]" (Measure.json_number (num "median" r))
      (Measure.json_number (num "q1" r)) (Measure.json_number (num "q3" r))
  in
  List.fold_left
    (fun all_ok (((workload, metric) as key), (a, (better, bound))) ->
      let verdict, detail =
        match List.assoc_opt key b_records with
        | None -> ("unresolved", "missing from " ^ b_path)
        | Some (b, _) ->
          let ma = num "median" a and mb = num "median" b in
          let delta = if ma = 0. then mb -. ma else (mb -. ma) /. ma in
          let worse = if better = "higher" then -.delta else delta in
          ( (if spread a > bound || spread b > bound then "unresolved"
             else if worse > bound then "regressed"
             else "ok"),
            Printf.sprintf "%s -> %s  %+.2f%% (bound %g%%)" (show a) (show b) (delta *. 100.) (bound *. 100.) )
      in
      Printf.printf "%-13s %-16s %s  %s\n" workload metric detail verdict;
      all_ok && verdict = "ok")
    true (records a_path)

(* {1 check: the benchmark's self-test} *)

(* One repetition of every workload, untraced and traced: every metric
   BENCHMARK.json names is emitted with its unit and sample count, no
   operation fails (the traced decompositions included), and [agree]
   accepts a record file compared with itself. *)
let check () =
  let dir = Filename.concat ".perfbench-tmp" "check" in
  Measure.mkdir_p dir;
  let untraced = Filename.concat dir "untraced.json" and traced = Filename.concat dir "traced.json" in
  run_all ~seed:0x5EEDL ~seconds:0. ~trace:false ~runs:1 ~out:untraced;
  run_all ~seed:0x5EEDL ~seconds:0. ~trace:true ~runs:1 ~out:traced;
  let spec = load_json "BENCHMARK.json" in
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  let same key listed mine =
    expect (List.sort compare listed = List.sort compare mine) ("BENCHMARK.json " ^ key ^ " differs from the program's")
  in
  same "workloads" (List.map (str "name") (list "workloads" spec)) (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all);
  same "end_to_end" (List.map (fun m -> (str "name" m, str "unit" m)) (list "end_to_end" spec)) Workloads.end_to_end;
  same "per_layer" (List.map (fun m -> (str "name" m, str "unit" m)) (list "per_layer" spec)) Workloads.per_layer;
  let covers path metrics =
    let records = Option.value (Obs.Json.to_list (load_json path)) ~default:[] in
    List.iter
      (fun (w : Workloads.t) ->
        List.iter
          (fun (metric, unit_) ->
            expect
              (List.exists
                 (fun r ->
                   str "workload" r = w.Workloads.name && str "metric" r = metric && str "unit" r = unit_
                   && num "n" r >= 1.)
                 records)
              (Printf.sprintf "%s: %s %s not emitted with its unit and n" path w.Workloads.name metric))
          metrics)
      Workloads.all;
    List.iter
      (fun r ->
        if str "metric" r = "failed_ratio" then
          expect (num "max" r = 0.) (Printf.sprintf "%s: %s had failed operations" path (str "workload" r)))
      records
  in
  covers untraced Workloads.end_to_end;
  covers traced Workloads.per_layer;
  expect (agree untraced untraced) "agree rejects a record file compared with itself";
  Measure.rm_rf dir;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev !problems);
  if !problems = [] then print_endline "check: ok";
  !problems = []

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 0x5EEDL and seconds = ref default_seconds in
  let trace = ref false and setup_only = ref false and runs = ref 5 in
  let record = ref None and trace_file = ref None and out = ref "" in
  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  Workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N  Input seed (decimal or 0x hex)");
      ("--seconds", Arg.Set_float seconds, "S  Measured seconds per run");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1  Per-layer (traced) pass instead of end-to-end");
      ("--record", Arg.String (fun p -> record := Some p), "FILE  Append this run's values to FILE (for all)");
      ("--trace-file", Arg.String (fun p -> trace_file := Some p), "FILE  Write the traced operations' spans as a Chrome trace");
      ("--out", Arg.Set_string out, "FILE  (all) Record file to write");
      ("--runs", Arg.Set_int runs, "N  (all) Runs per workload (default 5)");
      ("--setup-only", Arg.Set setup_only, " Build the workload's inputs and exit");
    ]
  in
  let usage = "run.exe [all|agree A B|check] [options]" in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2);
  let find () =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  match List.rev !anon with
  | [ "all" ] when !out <> "" && !runs >= 1 -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~runs:!runs ~out:!out
  | [ "agree"; a; b ] -> if not (agree a b) then exit 1
  | [ "check" ] -> if not (check ()) then exit 1
  | [] when !setup_only -> ((find ()).Workloads.setup ~seed:!seed).Workloads.stop ()
  | [] -> run_workload (find ()) ~seed:!seed ~seconds:!seconds ~trace:!trace ~record:!record ~trace_file:!trace_file
  | _ ->
    prerr_endline usage;
    exit 2
