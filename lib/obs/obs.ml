(* The observability sink, documented in obs.mli. *)

module Clock = Clock
module Metrics = Metrics
module Tracer = Tracer
module Log = Log
module Json = Json

type active = { metrics : Metrics.t; tracer : Tracer.t; clock : Clock.t }
type t = Noop | Active of active

let noop = Noop

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  Active
    { metrics = Metrics.create (); tracer = Tracer.create ~clock (); clock }

let enabled = function Noop -> false | Active _ -> true
let metrics = function Noop -> None | Active a -> Some a.metrics
let tracer = function Noop -> None | Active a -> Some a.tracer

let now_ns = function Noop -> 0L | Active a -> a.clock ()

(* {2 Spans} *)

let span t ?args name f =
  match t with Noop -> f () | Active a -> Tracer.span a.tracer ?args name f

let begin_span t ?args name =
  match t with Noop -> () | Active a -> Tracer.begin_span a.tracer ?args name

let end_span t name =
  match t with Noop -> () | Active a -> Tracer.end_span a.tracer name

let instant t ?args name =
  match t with Noop -> () | Active a -> Tracer.instant a.tracer ?args name

let timed t ?histogram name f =
  match t with
  | Noop -> (f (), 0.)
  | Active a ->
    let t0 = a.clock () in
    let result = Tracer.span a.tracer name f in
    let dt = Int64.to_float (Int64.sub (a.clock ()) t0) /. 1e9 in
    Option.iter (fun h -> Metrics.observe h dt) histogram;
    (result, dt)

(* {2 GC sampling} *)

let gc_sample t ~phase =
  match t with
  | Noop -> ()
  | Active a ->
    let s = Gc.quick_stat () in
    let labels = [ ("phase", phase) ] in
    let g name help v = Metrics.set (Metrics.gauge a.metrics ~labels ~help name) v in
    g "teesec_gc_minor_words" "Minor-heap words allocated (cumulative)."
      s.Gc.minor_words;
    g "teesec_gc_major_words" "Major-heap words allocated (cumulative)."
      s.Gc.major_words;
    g "teesec_gc_promoted_words" "Words promoted minor->major (cumulative)."
      s.Gc.promoted_words;
    g "teesec_gc_minor_collections" "Minor collections so far."
      (float_of_int s.Gc.minor_collections);
    g "teesec_gc_major_collections" "Major collections so far."
      (float_of_int s.Gc.major_collections);
    g "teesec_gc_heap_words" "Major heap size in words."
      (float_of_int s.Gc.heap_words);
    g "teesec_gc_top_heap_words" "Peak major heap size in words."
      (float_of_int s.Gc.top_heap_words)

(* {2 Export} *)

let write_file ~path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let save_trace t ~path =
  match t with
  | Noop -> ()
  | Active a -> write_file ~path (Tracer.to_chrome_json a.tracer)

let prometheus_text = function
  | Noop -> None
  | Active a -> Some (Metrics.to_prometheus a.metrics)

let save_metrics t ~path =
  match t with
  | Noop -> ()
  | Active a -> write_file ~path (Metrics.to_prometheus a.metrics)

let save_metrics_json t ~path =
  match t with
  | Noop -> ()
  | Active a -> write_file ~path (Metrics.to_json a.metrics)
