(** Deterministic observability layer: a sink threaded through the
    campaign, fuzzing and injection pipelines.

    The sink is either {!noop} — every operation is a single branch and
    does nothing, so instrumentation is zero-cost when observability is
    off — or active, carrying a {!Metrics} registry, a {!Tracer} and the
    clock both share.

    {b Determinism boundary}: wall-clock readings flow only into the
    trace and metrics outputs.  Verdict reports (campaign CSV, inject
    and fuzz JSON) must be byte-identical whether the sink is [noop] or
    active, at every job count — [test/test_obs.ml] pins exactly that. *)

module Clock = Clock
module Metrics = Metrics
module Tracer = Tracer
module Log = Log
module Json = Json

type t

(** The zero-cost disabled sink. *)
val noop : t

(** A fresh active sink.  [clock] defaults to {!Clock.monotonic};
    substitute {!Clock.fake} for reproducible traces in tests. *)
val create : ?clock:Clock.t -> unit -> t

val enabled : t -> bool
val metrics : t -> Metrics.t option
val tracer : t -> Tracer.t option

(** The sink's clock, in nanoseconds; [0L] on {!noop}.  The daemon reads
    it to timestamp queue-wait/execute intervals and to align worker
    span buffers onto its own timeline. *)
val now_ns : t -> int64

(** {2 Spans} *)

val span : t -> ?args:(string * Tracer.arg) list -> string -> (unit -> 'a) -> 'a
val begin_span : t -> ?args:(string * Tracer.arg) list -> string -> unit
val end_span : t -> string -> unit
val instant : t -> ?args:(string * Tracer.arg) list -> string -> unit

(** [timed t ?histogram name f] runs [f] inside a span, observes the
    elapsed seconds into [histogram] (if any) and returns
    [(result, seconds)].  On {!noop} the clock is never read and the
    elapsed time is [0.]. *)
val timed : t -> ?histogram:Metrics.histogram -> string -> (unit -> 'a) -> 'a * float

(** {2 GC sampling} *)

(** Sample [Gc.quick_stat] into per-phase gauges
    ([teesec_gc_minor_words{phase=...}] and friends, down to the peak
    major heap, [teesec_gc_top_heap_words]).  Call at phase boundaries;
    the gauges always hold the most recent sample. *)
val gc_sample : t -> phase:string -> unit

(** {2 Export} *)

(** Write [contents] to [path] byte for byte, replacing the file — the
    one file writer for the tool's JSON reports and exports. *)
val write_file : path:string -> string -> unit

(** Write the Chrome trace-event JSON.  No-op on {!noop}. *)
val save_trace : t -> path:string -> unit

(** The metrics registry rendered as Prometheus exposition text, or
    [None] on {!noop}.  What the serve daemon's HTTP scrape endpoint
    returns. *)
val prometheus_text : t -> string option

(** Write the metrics registry in Prometheus text format.  No-op on
    {!noop}. *)
val save_metrics : t -> path:string -> unit

(** Write the metrics registry as JSON.  No-op on {!noop}. *)
val save_metrics_json : t -> path:string -> unit
