(* Tests for the deterministic observability layer (lib/obs).

   Three families of contracts:

   - the exporters themselves: Prometheus text output that survives a
     round trip through a minimal parser with monotone histogram
     buckets, and Chrome trace-event JSON in which every begin event
     has a matching end on the same track;

   - the JSON printer every artifact goes through: both renderings read
     back to the printed value, and the report layouts are pinned by
     digest;

   - the determinism boundary: campaign, inject and fuzz artifacts are
     byte-identical whether the sink is noop or active, at jobs 1 and
     jobs 4, and fuzz --trace/--metrics write well-formed exports and
     leave the JSON report byte-identical — wall-clock readings must
     never reach a verdict report. *)

open Teesec
module Config = Uarch.Config
module Metrics = Obs.Metrics
module Tracer = Obs.Tracer
module Clock = Obs.Clock

(* {1 A minimal JSON parser}

   Just enough to validate the exporters' output (objects, arrays,
   strings with escapes, numbers, booleans, null).  Deliberately
   hand-rolled: the repo has no JSON dependency, and the trace/metrics
   files must be consumable by stock tooling, so the test parses them
   from scratch rather than trusting the producer. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Json_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'  (* non-ASCII: presence is enough *)
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); J_obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); J_obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); J_arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); J_arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

(* {1 A minimal Prometheus text-format parser}

   Returns the # TYPE declarations and every sample line as
   (metric name, label list, value). *)

type prom_sample = {
  p_name : string;
  p_labels : (string * string) list;
  p_value : float;
}

let parse_prometheus text =
  let types = ref [] in
  let samples = ref [] in
  let parse_labels s =
    (* comma-separated key=value pairs, values double-quoted with
       backslash escapes for backslash, quote and newline *)
    let n = String.length s in
    let pos = ref 0 in
    let rec labels acc =
      let eq = String.index_from s !pos '=' in
      let key = String.sub s !pos (eq - !pos) in
      assert (s.[eq + 1] = '"');
      let buf = Buffer.create 16 in
      let i = ref (eq + 2) in
      let rec value () =
        match s.[!i] with
        | '\\' ->
          (match s.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | c -> Buffer.add_char buf c);
          i := !i + 2;
          value ()
        | '"' -> incr i
        | c ->
          Buffer.add_char buf c;
          incr i;
          value ()
      in
      value ();
      let acc = (key, Buffer.contents buf) :: acc in
      if !i < n && s.[!i] = ',' then begin
        pos := !i + 1;
        labels acc
      end
      else List.rev acc
    in
    if n = 0 then [] else labels []
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
           match String.split_on_char ' ' line with
           | [ _; _; name; kind ] -> types := (name, kind) :: !types
           | _ -> Alcotest.failf "malformed TYPE line: %s" line
         end
         else if line.[0] = '#' then ()
         else begin
           (* name{labels} value | name value *)
           let name_end =
             match String.index_opt line '{' with
             | Some i -> i
             | None -> String.index line ' '
           in
           let p_name = String.sub line 0 name_end in
           let p_labels, value_start =
             if line.[name_end] = '{' then begin
               let close = String.rindex line '}' in
               ( parse_labels (String.sub line (name_end + 1) (close - name_end - 1)),
                 close + 2 )
             end
             else ([], name_end + 1)
           in
           let p_value =
             float_of_string
               (String.sub line value_start (String.length line - value_start))
           in
           samples := { p_name; p_labels; p_value } :: !samples
         end);
  (List.rev !types, List.rev !samples)

(* {1 Metrics registry} *)

let test_counter_gauge_histogram () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"a counter" "test_counter_total" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Alcotest.(check int) "counter value" 5 (Metrics.counter_value c);
  let g = Metrics.gauge m "test_gauge" in
  Metrics.set g 2.5;
  Metrics.add g 1.0;
  Alcotest.(check (float 1e-9)) "gauge value" 3.5 (Metrics.gauge_value g);
  let h = Metrics.histogram m ~buckets:[ 1.; 2.; 4. ] "test_histogram" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check int) "histogram count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 105.0 (Metrics.histogram_sum h);
  Alcotest.(check int) "series count" 3 (Metrics.series_count m)

let test_registration_idempotent () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~labels:[ ("k", "v") ] "idem_total" in
  let c2 = Metrics.counter m ~labels:[ ("k", "v") ] "idem_total" in
  Metrics.inc c1;
  Metrics.inc c2;
  Alcotest.(check int) "both handles hit one series" 2 (Metrics.counter_value c1);
  Alcotest.(check int) "one series registered" 1 (Metrics.series_count m);
  (* A different label value is a fresh series of the same family. *)
  let c3 = Metrics.counter m ~labels:[ ("k", "w") ] "idem_total" in
  Metrics.inc c3;
  Alcotest.(check int) "second series" 2 (Metrics.series_count m)

let test_registration_conflicts () =
  let m = Metrics.create () in
  let (_ : Metrics.counter) = Metrics.counter m "conflicted" in
  Alcotest.(check bool) "kind clash raises" true
    (try
       ignore (Metrics.gauge m "conflicted");
       false
     with Invalid_argument _ -> true);
  let (_ : Metrics.histogram) = Metrics.histogram m ~buckets:[ 1.; 2. ] "hist" in
  Alcotest.(check bool) "bucket clash raises" true
    (try
       ignore (Metrics.histogram m ~buckets:[ 1.; 3. ] "hist");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "descending buckets raise" true
    (try
       ignore (Metrics.histogram m ~buckets:[ 2.; 1. ] "hist2");
       false
     with Invalid_argument _ -> true)

(* qcheck: cumulative bucket counts are monotone and end at the total,
   for arbitrary observation streams. *)
let cumulative_buckets_monotone =
  QCheck.Test.make ~count:100 ~name:"cumulative histogram buckets are monotone"
    QCheck.(list (float_bound_exclusive 10.0))
    (fun observations ->
      let m = Metrics.create () in
      let h = Metrics.histogram m ~buckets:[ 0.5; 1.; 2.; 5. ] "qcheck_hist" in
      List.iter (Metrics.observe h) observations;
      let buckets = Metrics.cumulative_buckets h in
      let counts = List.map snd buckets in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone counts
      && List.length buckets = 5
      && fst (List.nth buckets 4) = infinity
      && snd (List.nth buckets 4) = List.length observations)

let test_prometheus_round_trip () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"cases run" "rt_cases_total" in
  Metrics.inc ~by:7 c;
  let g = Metrics.gauge m ~labels:[ ("phase", "fuzz") ] "rt_heap_words" in
  Metrics.set g 1234.0;
  let h =
    Metrics.histogram m ~help:"durations" ~buckets:[ 0.1; 0.2; 0.4 ]
      ~labels:[ ("impl", "indexed") ]
      "rt_duration_seconds"
  in
  List.iter (Metrics.observe h) [ 0.05; 0.15; 0.15; 0.3; 9.0 ];
  let types, samples = parse_prometheus (Metrics.to_prometheus m) in
  Alcotest.(check (list (pair string string)))
    "TYPE declarations in registration order"
    [ ("rt_cases_total", "counter"); ("rt_heap_words", "gauge");
      ("rt_duration_seconds", "histogram") ]
    types;
  let find name labels =
    match
      List.find_opt (fun s -> s.p_name = name && s.p_labels = labels) samples
    with
    | Some s -> s.p_value
    | None -> Alcotest.failf "sample %s%s missing" name (String.concat "," (List.map fst labels))
  in
  Alcotest.(check (float 0.)) "counter sample" 7.0 (find "rt_cases_total" []);
  Alcotest.(check (float 0.)) "gauge sample" 1234.0
    (find "rt_heap_words" [ ("phase", "fuzz") ]);
  (* Histogram expansion: cumulative, monotone, +Inf == _count. *)
  let bucket le = find "rt_duration_seconds_bucket" [ ("impl", "indexed"); ("le", le) ] in
  Alcotest.(check (float 0.)) "le=0.1" 1.0 (bucket "0.1");
  Alcotest.(check (float 0.)) "le=0.2" 3.0 (bucket "0.2");
  Alcotest.(check (float 0.)) "le=0.4" 4.0 (bucket "0.4");
  Alcotest.(check (float 0.)) "le=+Inf" 5.0 (bucket "+Inf");
  Alcotest.(check (float 0.)) "_count" 5.0
    (find "rt_duration_seconds_count" [ ("impl", "indexed") ]);
  Alcotest.(check (float 1e-9)) "_sum" 9.65
    (find "rt_duration_seconds_sum" [ ("impl", "indexed") ])

(* HELP text escaping: the exposition format escapes only backslash and
   newline there — double quotes must pass through verbatim (they are
   only escaped inside label values).  Regression test for the renderer
   reusing the label-value escaper. *)
let test_prometheus_help_escaping () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m ~help:"the \"hot\" path\ncontinued c:\\tmp"
      "help_escape_total"
  in
  Metrics.inc c;
  let text = Metrics.to_prometheus m in
  let help_line =
    match
      List.find_opt
        (fun l ->
          String.length l >= 7 && String.sub l 0 7 = "# HELP ")
        (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.fail "no HELP line rendered"
  in
  Alcotest.(check string) "quotes verbatim, backslash and newline escaped"
    "# HELP help_escape_total the \"hot\" path\\ncontinued c:\\\\tmp"
    help_line;
  (* The label-value escaper still quotes double quotes. *)
  let m2 = Metrics.create () in
  let g = Metrics.gauge m2 ~labels:[ ("k", "say \"hi\"") ] "help_escape_gauge" in
  Metrics.set g 1.0;
  let _, samples = parse_prometheus (Metrics.to_prometheus m2) in
  Alcotest.(check bool) "label value round-trips" true
    (List.exists
       (fun s -> s.p_labels = [ ("k", "say \"hi\"") ])
       samples)

let test_metrics_json_parses () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "json_total");
  Metrics.set (Metrics.gauge m "json_gauge") Float.nan;  (* NaN must render as null *)
  Metrics.observe (Metrics.histogram m ~buckets:[ 1. ] "json_hist") 0.5;
  match parse_json (Metrics.to_json m) with
  | J_obj [ ("metrics", J_arr entries) ] ->
    Alcotest.(check int) "three series" 3 (List.length entries);
    List.iter
      (fun e ->
        match obj_field "name" e with
        | Some (J_str _) -> ()
        | _ -> Alcotest.fail "entry without a name")
      entries
  | _ -> Alcotest.fail "unexpected top-level JSON shape"

(* {1 Tracer} *)

let test_tracer_spans_and_chrome_json () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  Tracer.name_thread tracer "main";
  Tracer.span tracer "outer" (fun () ->
      Tracer.span tracer ~args:[ ("batch", Tracer.Int 1) ] "inner" (fun () -> ());
      Tracer.instant tracer "marker");
  Alcotest.(check (list string)) "all spans closed" [] (Tracer.unclosed tracer);
  let json = parse_json (Tracer.to_chrome_json tracer) in
  let events =
    match obj_field "traceEvents" json with
    | Some (J_arr events) -> events
    | _ -> Alcotest.fail "no traceEvents array"
  in
  (* Per-track begin/end stack check: every B has a matching E, properly
     nested, and timestamps never decrease. *)
  let stacks = Hashtbl.create 4 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let field name =
        match obj_field name e with
        | Some v -> v
        | None -> Alcotest.failf "event missing %s" name
      in
      let ph = match field "ph" with J_str s -> s | _ -> Alcotest.fail "ph" in
      let tid = match field "tid" with J_num f -> int_of_float f | _ -> Alcotest.fail "tid" in
      let name = match field "name" with J_str s -> s | _ -> Alcotest.fail "name" in
      (* Metadata events carry no timestamp (per the trace-event spec). *)
      (if ph <> "M" then
         match field "ts" with
         | J_num ts ->
           Alcotest.(check bool) "timestamps sorted" true (ts >= !last_ts);
           last_ts := ts
         | _ -> Alcotest.fail "ts");
      let stack = try Hashtbl.find stacks tid with Not_found -> [] in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
        match stack with
        | top :: rest when top = name -> Hashtbl.replace stacks tid rest
        | _ -> Alcotest.failf "end %S does not match the open span" name)
      | "i" | "M" -> ()
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  Hashtbl.iter
    (fun _ stack -> Alcotest.(check (list string)) "track stack empty" [] stack)
    stacks;
  let phases =
    List.filter_map
      (fun e -> match obj_field "ph" e with Some (J_str s) -> Some s | _ -> None)
      events
  in
  Alcotest.(check bool) "has an instant event" true (List.mem "i" phases);
  Alcotest.(check bool) "has a metadata event" true (List.mem "M" phases)

let test_tracer_mismatch_raises () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  Tracer.begin_span tracer "a";
  Alcotest.(check bool) "mismatched end raises" true
    (try
       Tracer.end_span tracer "b";
       false
     with Invalid_argument _ -> true);
  Tracer.end_span tracer "a";
  Alcotest.(check bool) "end on empty stack raises" true
    (try
       Tracer.end_span tracer "a";
       false
     with Invalid_argument _ -> true)

let test_fake_clock_deterministic () =
  let c1 = Clock.fake ~step_ns:10L () in
  let first = c1 () in
  let second = c1 () in
  Alcotest.(check bool) "fake clock ticks" true (first < second);
  let c2 = Clock.monotonic () in
  let a = c2 () in
  let b = c2 () in
  Alcotest.(check bool) "monotonic clock never decreases" true (b >= a)

(* {1 The sink} *)

let test_noop_sink_is_inert () =
  let obs = Obs.noop in
  Alcotest.(check bool) "noop is disabled" false (Obs.enabled obs);
  Alcotest.(check bool) "noop has no metrics" true (Obs.metrics obs = None);
  Alcotest.(check bool) "noop has no tracer" true (Obs.tracer obs = None);
  (* All operations are no-ops rather than errors. *)
  Obs.begin_span obs "x";
  Obs.end_span obs "y";  (* even mismatched: there is no stack *)
  Obs.instant obs "z";
  Obs.gc_sample obs ~phase:"none";
  let result, seconds = Obs.timed obs "phase" (fun () -> 42) in
  Alcotest.(check int) "timed passes the result through" 42 result;
  Alcotest.(check (float 0.)) "timed reads no clock on noop" 0. seconds

let test_active_sink_collects () =
  let obs = Obs.create ~clock:(Clock.fake ()) () in
  let m = match Obs.metrics obs with Some m -> m | None -> Alcotest.fail "active sink" in
  let h = Metrics.histogram m "sink_duration_seconds" in
  let result, seconds = Obs.timed obs ~histogram:h "phase" (fun () -> "ok") in
  Alcotest.(check string) "result" "ok" result;
  Alcotest.(check bool) "elapsed > 0 on the fake clock" true (seconds > 0.);
  Alcotest.(check int) "histogram observed" 1 (Metrics.histogram_count h);
  Obs.gc_sample obs ~phase:"test";
  let words =
    Metrics.gauge_value
      (Metrics.gauge m ~labels:[ ("phase", "test") ] "teesec_gc_minor_words")
  in
  Alcotest.(check bool) "gc gauge sampled" true (words > 0.);
  let gauge name = Metrics.gauge_value (Metrics.gauge m ~labels:[ ("phase", "test") ] name) in
  Alcotest.(check bool) "peak heap sampled, at least the current heap" true
    (gauge "teesec_gc_top_heap_words" >= gauge "teesec_gc_heap_words"
    && gauge "teesec_gc_heap_words" > 0.)

(* {1 Pool instrumentation} *)

let test_pool_task_counters () =
  let obs = Obs.create ~clock:(Clock.fake ()) () in
  let xs = List.init 40 Fun.id in
  let ys = Parallel.Pool.parmap ~obs ~chunk:1 ~jobs:3 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "parmap result" (List.map (fun x -> x * x) xs) ys;
  let m = match Obs.metrics obs with Some m -> m | None -> assert false in
  let total =
    List.fold_left
      (fun acc worker ->
        acc
        + Metrics.counter_value
            (Metrics.counter m
               ~labels:[ ("worker", string_of_int worker) ]
               "teesec_pool_tasks_total"))
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "every task counted exactly once" 40 total;
  (* The trace is well-formed: workers close their idle spans at exit. *)
  match Obs.tracer obs with
  | Some tr -> Alcotest.(check (list string)) "no unclosed spans" [] (Tracer.unclosed tr)
  | None -> assert false

(* {1 The determinism boundary}

   Verdict artifacts are byte-identical across {noop, active} x {jobs 1,
   jobs 4}: the sink x jobs projection of the byte-identity harness
   (test/equiv.ml). *)

let sink_and_jobs = Equiv.across ~jobs:[ 1; 4 ] ~active:[ false; true ] ()

let test_campaign_determinism () =
  Equiv.row ~variants:sink_and_jobs
    (Equiv.campaign (Equiv.slice_prefix 6))
    Config.boom ()

let test_inject_determinism () =
  Equiv.row ~variants:sink_and_jobs
    (Equiv.inject ~seed:42L ~plans:3 (Equiv.slice_prefix 6))
    Config.boom ()

let test_fuzz_determinism () =
  Equiv.row ~variants:sink_and_jobs
    (Equiv.fuzz
       { Fuzz.Engine.default with Fuzz.Engine.seed = 42L; budget = 48; batch = 16 })
    Config.xiangshan ()

(* {1 Structured log} *)

module Log = Obs.Log
module Ojson = Obs.Json

(* The deterministic mode is the testability contract: no timestamp and
   no pid, so the same code path renders the same bytes every run. *)
let test_log_deterministic_bytes () =
  let render () =
    let buf = Buffer.create 256 in
    let log = Log.create ~deterministic:true ~writer:(Buffer.add_string buf) () in
    Log.info log ~event:"dispatch"
      [ ("job", Log.String "j-1"); ("shard", Log.Int 3);
        ("wait_s", Log.Float 0.5); ("retry", Log.Bool false) ];
    Log.warn log ~event:"backoff" [ ("worker", Log.Int 0) ];
    Buffer.contents buf
  in
  let a = render () in
  let b = render () in
  Alcotest.(check string) "two runs render identical bytes" a b;
  let lines = String.split_on_char '\n' a |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Ojson.parse line with
      | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e line
      | Ok doc ->
        Alcotest.(check bool) "line has a level" true
          (Ojson.string_field "level" doc <> None);
        Alcotest.(check bool) "line has an event" true
          (Ojson.string_field "event" doc <> None);
        Alcotest.(check bool) "deterministic mode omits ts" true
          (Ojson.member "ts_ns" doc = None && Ojson.member "pid" doc = None))
    lines;
  (* Field round trip on the first line. *)
  let first = Ojson.parse_exn (List.hd lines) in
  Alcotest.(check (option string)) "event" (Some "dispatch")
    (Ojson.string_field "event" first);
  Alcotest.(check (option string)) "string field" (Some "j-1")
    (Ojson.string_field "job" first);
  Alcotest.(check bool) "int field" true
    (Ojson.number_field "shard" first = Some 3.0);
  Alcotest.(check bool) "bool field" true
    (Option.bind (Ojson.member "retry" first) Ojson.to_bool = Some false)

let test_log_level_filtering () =
  let buf = Buffer.create 256 in
  let log =
    Log.create ~level:Log.Warn ~deterministic:true
      ~writer:(Buffer.add_string buf) ()
  in
  Alcotest.(check bool) "debug disabled" false (Log.enabled log Log.Debug);
  Alcotest.(check bool) "info disabled" false (Log.enabled log Log.Info);
  Alcotest.(check bool) "warn enabled" true (Log.enabled log Log.Warn);
  Alcotest.(check bool) "error enabled" true (Log.enabled log Log.Error);
  Log.debug log ~event:"a" [];
  Log.info log ~event:"b" [];
  Log.warn log ~event:"c" [];
  Log.error log ~event:"d" [];
  let events =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Ojson.string_field "event" (Ojson.parse_exn l))
  in
  Alcotest.(check (list (option string)))
    "only warn and error survive the threshold" [ Some "c"; Some "d" ] events

let test_log_null_and_levels () =
  List.iter
    (fun level -> Alcotest.(check bool) "null drops every level" false
        (Log.enabled Log.null level))
    [ Log.Debug; Log.Info; Log.Warn; Log.Error ];
  (* Writing to null is a no-op, not an error. *)
  Log.error Log.null ~event:"x" [ ("k", Log.String "v") ];
  List.iter
    (fun (level, name) ->
      Alcotest.(check string) "level renders" name (Log.level_to_string level);
      Alcotest.(check bool) "level parses back" true
        (Log.level_of_string name = Some level))
    [ (Log.Debug, "debug"); (Log.Info, "info"); (Log.Warn, "warn");
      (Log.Error, "error") ];
  Alcotest.(check bool) "unknown level rejected" true
    (Log.level_of_string "verbose" = None)

(* {1 Metric snapshots: the worker-delta protocol} *)

let test_snapshot_diff_absorb () =
  let m = Metrics.create () in
  let c = Metrics.counter m "delta_total" in
  let g = Metrics.gauge m "delta_gauge" in
  let h = Metrics.histogram m ~buckets:[ 1.; 2. ] "delta_seconds" in
  Metrics.inc ~by:3 c;
  Metrics.set g 1.0;
  Metrics.observe h 0.5;
  let before = Metrics.snapshot m in
  (* Quiescent period: diff of a registry against itself is empty. *)
  Alcotest.(check int) "no activity, no delta" 0
    (List.length (Metrics.diff ~before ~after:(Metrics.snapshot m)));
  Metrics.inc ~by:2 c;
  Metrics.set g 7.5;
  Metrics.observe h 1.5;
  Metrics.observe h 10.0;
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot m) in
  Alcotest.(check int) "three changed series" 3 (List.length delta);
  let find name =
    match List.find_opt (fun e -> e.Metrics.e_name = name) delta with
    | Some e -> e.Metrics.e_value
    | None -> Alcotest.failf "series %s missing from delta" name
  in
  (match find "delta_total" with
  | Metrics.Counter_snapshot n ->
    Alcotest.(check int) "counter delta is the increment" 2 n
  | _ -> Alcotest.fail "counter kind");
  (match find "delta_gauge" with
  | Metrics.Gauge_snapshot v ->
    Alcotest.(check (float 0.)) "gauge delta is the latest value" 7.5 v
  | _ -> Alcotest.fail "gauge kind");
  (match find "delta_seconds" with
  | Metrics.Histogram_snapshot { counts; total; sum; _ } ->
    Alcotest.(check int) "histogram delta total" 2 total;
    Alcotest.(check (float 1e-9)) "histogram delta sum" 11.5 sum;
    Alcotest.(check (list int)) "per-bucket increments" [ 0; 1; 1 ] counts
  | _ -> Alcotest.fail "histogram kind");
  (* The daemon side: absorb the delta twice under different worker
     labels — two distinct series, each carrying its own delta. *)
  let daemon = Metrics.create () in
  Metrics.absorb ~extra_labels:[ ("worker", "0") ] daemon delta;
  Metrics.absorb ~extra_labels:[ ("worker", "0") ] daemon delta;
  Metrics.absorb ~extra_labels:[ ("worker", "1") ] daemon delta;
  let worker w =
    Metrics.counter_value
      (Metrics.counter daemon ~labels:[ ("worker", w) ] "delta_total")
  in
  Alcotest.(check int) "counters accumulate per label" 4 (worker "0");
  Alcotest.(check int) "labels keep workers apart" 2 (worker "1");
  let h0 =
    Metrics.histogram daemon ~buckets:[ 1.; 2. ]
      ~labels:[ ("worker", "0") ] "delta_seconds"
  in
  Alcotest.(check int) "histogram buckets add element-wise" 4
    (Metrics.histogram_count h0);
  Alcotest.(check (float 1e-9)) "histogram sums add" 23.0
    (Metrics.histogram_sum h0);
  (* A bucket-layout conflict is a programming error, as in registration. *)
  let clashing = Metrics.create () in
  let (_ : Metrics.histogram) =
    Metrics.histogram clashing ~buckets:[ 5.; 6. ] "delta_seconds"
  in
  Alcotest.(check bool) "absorb rejects mismatched buckets" true
    (try
       Metrics.absorb clashing delta;
       false
     with Invalid_argument _ -> true)

(* {1 The consumer-side JSON reader} *)

let test_obs_json_parser () =
  let doc =
    Ojson.parse_exn
      {|{"s": "a\"b\\c\nd", "n": -1.5e2, "i": 42, "b": true, "z": null,
         "arr": [1, "two", false], "nested": {"k": "v"}}|}
  in
  Alcotest.(check (option string)) "escaped string" (Some "a\"b\\c\nd")
    (Ojson.string_field "s" doc);
  Alcotest.(check bool) "negative exponent number" true
    (Ojson.number_field "n" doc = Some (-150.0));
  Alcotest.(check bool) "integer" true (Ojson.number_field "i" doc = Some 42.0);
  Alcotest.(check bool) "bool" true
    (Option.bind (Ojson.member "b" doc) Ojson.to_bool = Some true);
  Alcotest.(check bool) "null is present but not coercible" true
    (Ojson.member "z" doc = Some Ojson.Null);
  (match Option.bind (Ojson.member "arr" doc) Ojson.to_list with
  | Some [ a; b; c ] ->
    Alcotest.(check bool) "array element types" true
      (Ojson.to_number a = Some 1.0
      && Ojson.to_string b = Some "two"
      && Ojson.to_bool c = Some false)
  | _ -> Alcotest.fail "array shape");
  Alcotest.(check (option string)) "nested object member" (Some "v")
    (Option.bind (Ojson.member "nested" doc) (Ojson.string_field "k"));
  Alcotest.(check bool) "missing key is None" true
    (Ojson.member "absent" doc = None);
  Alcotest.(check bool) "member on a non-object is None" true
    (Ojson.member "k" (Ojson.Num 1.0) = None);
  (* Malformed inputs are Errors, not crashes. *)
  List.iter
    (fun src ->
      match Ojson.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" src)
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "" ]

(* Adversarially deep nesting must fail with a parse error, never escape
   as [Stack_overflow]: the parser reads wire bytes (worker replies,
   HTTP bodies), so stack exhaustion would be remotely triggerable. *)
let test_obs_json_depth_limit () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Ojson.parse (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "100 levels should parse: %s" e);
  List.iter
    (fun src ->
      match Ojson.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unbounded nesting accepted")
    [
      deep 100_000;
      String.concat "" (List.init 100_000 (fun _ -> "{\"k\":")) ^ "1";
      String.make 100_000 '[';
    ]

(* qcheck: [parse] is total — arbitrary bytes produce [Ok] or [Error],
   never an exception.  Exercises both raw garbage and mutations of
   well-formed documents (truncation, bracket doubling). *)
let obs_json_parse_total =
  QCheck.Test.make ~count:500 ~name:"Json.parse never raises"
    QCheck.(string_of Gen.printable)
    (fun s ->
      let probe src =
        match Ojson.parse src with Ok _ | Error _ -> true
      in
      probe s
      && probe ("{\"k\": [" ^ s ^ "]}")
      && probe (String.sub ("[1, {\"a\": \"" ^ s ^ "\"}]") 0
                  (min 5 (String.length s + 5)))
      && probe (s ^ s))

(* {1 The printer}

   Both renderings must read back to the printed value, through the
   library's parser and through this file's independent one.  Strings
   and keys range over all 256 byte values; numbers over arbitrary
   finite bit patterns plus the integral edges of the number format
   (1e15, 2^53, 2^62) and both zeros; containers nest up to five
   levels. *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 10))

let gen_number =
  let open QCheck.Gen in
  let around x = map (fun d -> x +. float_of_int d) (int_range (-2) 2) in
  frequency
    [
      ( 1,
        oneofl
          [ 0.; -0.; 0x1p62; -0x1p62; Float.pred 0x1p62; Float.succ 0x1p62 ] );
      ( 1,
        oneof
          [ around 1e15; around (-1e15); around 0x1p53; around (-0x1p53) ] );
      (2, map float_of_int int);
      ( 2,
        map2 (fun m e -> Float.ldexp m e) (float_range (-1.) 1.)
          (int_range (-30) 70) );
      ( 2,
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.5)
          ui64 );
    ]

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        pure Ojson.Null;
        map (fun b -> Ojson.Bool b) bool;
        map (fun f -> Ojson.Num f) gen_number;
        map (fun s -> Ojson.Str s) gen_bytes;
      ]
  in
  let rec container depth =
    let child =
      if depth = 1 then scalar else oneof [ scalar; container (depth - 1) ]
    in
    oneof
      [
        map (fun l -> Ojson.Arr l) (list_size (int_bound 4) child);
        map
          (fun l -> Ojson.Obj l)
          (list_size (int_bound 4) (pair gen_bytes child));
      ]
  in
  int_range 1 5 >>= fun depth -> oneof [ scalar; container depth ]

let rec independent = function
  | Ojson.Null -> J_null
  | Ojson.Bool b -> J_bool b
  | Ojson.Num f -> J_num f
  | Ojson.Str s -> J_str s
  | Ojson.Arr l -> J_arr (List.map independent l)
  | Ojson.Obj l -> J_obj (List.map (fun (k, v) -> (k, independent v)) l)

(* RFC 8259 forbids raw control bytes inside strings; the only one a
   rendering may contain is the document form's line break. *)
let no_raw_control text =
  String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) text

let obs_json_print_round_trip =
  QCheck.Test.make ~count:1000 ~name:"both renderings read back to the value"
    (QCheck.make ~print:Ojson.to_line gen_json)
    (fun v ->
      List.for_all
        (fun text ->
          no_raw_control text
          && Ojson.parse text = Ok v
          && parse_json text = independent v)
        [ Ojson.to_line v; Ojson.to_document v ])

let test_obs_json_printer () =
  let check = Alcotest.(check string) in
  check "one-line form"
    {|{"a": 1, "b": [0.1, -2.5e-07, "q\"\\\n\u0001\u001f\u0009"], "c": {}}|}
    (Ojson.to_line
       (Obj
          [
            ("a", Num 1.);
            ("b", Arr [ Num 0.1; Num (-2.5e-7); Str "q\"\\\n\001\031\t" ]);
            ("c", Obj []);
          ]));
  check "bytes from 0x7f up are written raw" "\"\127\200\255\""
    (Ojson.to_line (Str "\127\200\255"));
  check "document form"
    (String.concat "\n"
       [
         "{";
         {|  "k": [|};
         {|    {"x": [1, 2]},|};
         "    []";
         "  ],";
         {|  "e": {},|};
         {|  "o": {|};
         {|    "n": null|};
         "  }";
         "}\n";
       ])
    (Ojson.to_document
       (Obj
          [
            ("k", Arr [ Obj [ ("x", Arr [ Num 1.; Num 2. ]) ]; Arr [] ]);
            ("e", Obj []);
            ("o", Obj [ ("n", Null) ]);
          ]));
  check "a scalar document" "true\n" (Ojson.to_document (Bool true));
  List.iter
    (fun (f, text) ->
      check (Printf.sprintf "number %h" f) text (Ojson.to_line (Num f)))
    [
      (1792217077586344192., "1792217077586344192");
      (-0., "0");
      (1e15, "1000000000000000");
      (0x1p62, "4.6116860184273879e+18");
      (Float.pred 0x1p62, "4611686018427387392");
      (0.1, "0.1");
      (1. /. 3., "0.33333333333333331");
      (Float.nan, "null");
      (Float.infinity, "null");
      (Float.neg_infinity, "null");
    ]

(* {1 Report layout}

   Digests of the document bytes of the three reports on both cores.
   The pipeline suites check what the reports say; these pin how they
   are laid out, so a change to the printer's rendering fails here
   instead of drifting silently.  Such a change also needs a
   [Protocol_version.build] bump: the service stores report bytes. *)

let report_documents config =
  let slice = Mitigation_eval.slice () in
  [
    ( "inject",
      Inject.Robustness_report.to_json_string
        (Inject.Inject_campaign.run ~seed:42L ~plans:3 config slice) );
    ( "fuzz",
      Fuzz.Fuzz_report.to_json_string
        (Fuzz.Engine.run
           { Fuzz.Engine.default with Fuzz.Engine.seed = 42L; budget = 40 }
           config) );
    ("symex", Symex.Symex_report.to_json_string (Symex.Explore.run config));
  ]

let test_report_layout_digests () =
  List.iter
    (fun (config, expected) ->
      List.iter2
        (fun (name, doc) digest ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s document digest" config.Config.name name)
            digest
            (Digest.to_hex (Digest.string doc)))
        (report_documents config) expected)
    [
      ( Config.boom,
        [
          "3b8b8121abb935790e31d6203f90bee7";
          "5ab5039ca7e00408746c26caccb26b27";
          "56e6a2dbdc883c566594c23dc39cc93d";
        ] );
      ( Config.xiangshan,
        [
          "722a3a9aaa4748385b1ea2e982d27912";
          "ec06b56d6aadf1ddabc560e07f8c5e8c";
          "90db637e385bb0a5ce4efb6461690d0d";
        ] );
    ]

(* {1 CLI acceptance}

   The ISSUE's acceptance criterion, end to end: `fuzz --trace --metrics`
   writes a loadable trace and a parseable metrics file while the JSON
   report stays byte-identical to a flagless run, at jobs 1 and 4. *)

let all_equal label = function
  | [] | [ _ ] -> ()
  | reference :: rest ->
    List.iteri
      (fun i other -> Alcotest.(check string) (Printf.sprintf "%s (variant %d)" label (i + 1)) reference other)
      rest

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let test_cli_fuzz_observability () =
  let tmp suffix = Filename.temp_file "teesec_obs" suffix in
  let reports =
    List.concat_map
      (fun jobs ->
        List.map
          (fun observed ->
            let json = tmp ".json" in
            let extra =
              if observed then
                let trace = tmp ".trace.json" in
                let metrics = tmp ".prom" in
                [| "--trace"; trace; "--metrics"; metrics |]
              else [||]
            in
            let argv =
              Array.append
                [| "teesec_cli"; "fuzz"; "--quiet"; "--budget"; "48";
                   "--batch"; "16"; "--seed"; "42"; "--json"; json;
                   "--jobs"; string_of_int jobs |]
                extra
            in
            let code, _ = Cli.Teesec_cmds.eval_captured ~argv in
            Alcotest.(check int) "fuzz exits 0" 0 code;
            let report = read_file json in
            Sys.remove json;
            (if observed then
               match extra with
               | [| _; trace; _; metrics |] ->
                 (* The trace must be well-formed Chrome JSON with every
                    span closed (B/E balanced per track). *)
                 let trace_json = parse_json (read_file trace) in
                 (match obj_field "traceEvents" trace_json with
                 | Some (J_arr events) ->
                   Alcotest.(check bool) "trace has events" true (events <> []);
                   let opens = Hashtbl.create 4 in
                   List.iter
                     (fun e ->
                       match (obj_field "ph" e, obj_field "tid" e) with
                       | Some (J_str "B"), Some (J_num tid) ->
                         Hashtbl.replace opens tid
                           (1 + try Hashtbl.find opens tid with Not_found -> 0)
                       | Some (J_str "E"), Some (J_num tid) ->
                         Hashtbl.replace opens tid
                           ((try Hashtbl.find opens tid with Not_found -> 0) - 1)
                       | _ -> ())
                     events;
                   Hashtbl.iter
                     (fun _ depth ->
                       Alcotest.(check int) "begin/end balanced" 0 depth)
                     opens
                 | _ -> Alcotest.fail "trace file has no traceEvents");
                 (* The metrics file must parse and carry the fuzz counters. *)
                 let _, samples = parse_prometheus (read_file metrics) in
                 let exec =
                   List.find_opt
                     (fun s -> s.p_name = "teesec_fuzz_executions_total")
                     samples
                 in
                 (match exec with
                 | Some s -> Alcotest.(check (float 0.)) "executions counted" 48.0 s.p_value
                 | None -> Alcotest.fail "teesec_fuzz_executions_total missing");
                 Sys.remove trace;
                 Sys.remove metrics
               | _ -> assert false);
            report)
          [ false; true ])
      [ 1; 4 ]
  in
  all_equal "fuzz report JSON across flags and jobs" reports

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter, gauge, histogram basics" `Quick
            test_counter_gauge_histogram;
          Alcotest.test_case "registration is idempotent per (name, labels)"
            `Quick test_registration_idempotent;
          Alcotest.test_case "kind and bucket conflicts raise" `Quick
            test_registration_conflicts;
          QCheck_alcotest.to_alcotest cumulative_buckets_monotone;
          Alcotest.test_case "prometheus text round-trips through a parser"
            `Quick test_prometheus_round_trip;
          Alcotest.test_case "prometheus HELP text escaping" `Quick
            test_prometheus_help_escaping;
          Alcotest.test_case "JSON export parses" `Quick test_metrics_json_parses;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "spans export as balanced Chrome JSON" `Quick
            test_tracer_spans_and_chrome_json;
          Alcotest.test_case "mismatched end_span raises" `Quick
            test_tracer_mismatch_raises;
          Alcotest.test_case "clocks tick and never decrease" `Quick
            test_fake_clock_deterministic;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop sink is inert" `Quick test_noop_sink_is_inert;
          Alcotest.test_case "active sink collects spans, metrics and GC" `Quick
            test_active_sink_collects;
          Alcotest.test_case "pool counts every task exactly once" `Quick
            test_pool_task_counters;
        ] );
      ( "log",
        [
          Alcotest.test_case "deterministic mode renders stable JSONL bytes"
            `Quick test_log_deterministic_bytes;
          Alcotest.test_case "level threshold filters events" `Quick
            test_log_level_filtering;
          Alcotest.test_case "null sink and level round trips" `Quick
            test_log_null_and_levels;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "snapshot/diff/absorb carries worker deltas"
            `Quick test_snapshot_diff_absorb;
        ] );
      ( "json",
        [
          Alcotest.test_case "consumer-side parser reads values and rejects junk"
            `Quick test_obs_json_parser;
          Alcotest.test_case "deep nesting is a parse error, not a crash"
            `Quick test_obs_json_depth_limit;
          QCheck_alcotest.to_alcotest obs_json_parse_total;
          Alcotest.test_case "printer renderings, escapes and numbers" `Quick
            test_obs_json_printer;
          QCheck_alcotest.to_alcotest obs_json_print_round_trip;
          Alcotest.test_case "report document layouts are pinned" `Quick
            test_report_layout_digests;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign CSV identical across sink and jobs" `Slow
            test_campaign_determinism;
          Alcotest.test_case "inject JSON identical across sink and jobs" `Slow
            test_inject_determinism;
          Alcotest.test_case "fuzz JSON identical across sink and jobs" `Slow
            test_fuzz_determinism;
          Alcotest.test_case
            "cli fuzz --trace/--metrics leaves the report byte-identical" `Slow
            test_cli_fuzz_observability;
        ] );
    ]
