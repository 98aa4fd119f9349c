(** A metrics registry: counters, gauges and fixed-bucket histograms
    with a stable registration order, snapshottable to the Prometheus
    text exposition format and to JSON.

    Registration is idempotent — registering the same (name, labels)
    pair again returns the existing series — so instrumented modules can
    build their handles lazily from whatever sink they are given.  The
    exposition output lists metric families in first-registration order
    and series within a family in registration order; to keep that order
    deterministic, register every series from the orchestrating domain
    before fanning work out (the worker-side operations [inc], [set],
    [add] and [observe] are thread-safe).

    Registering a name under two different kinds, or a histogram twice
    with different buckets, is a programming error and raises
    [Invalid_argument]. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter :
  t -> ?labels:(string * string) list -> ?help:string -> string -> counter

val gauge :
  t -> ?labels:(string * string) list -> ?help:string -> string -> gauge

val histogram :
  t ->
  ?labels:(string * string) list ->
  ?help:string ->
  ?buckets:float list ->
  string ->
  histogram
(** [buckets] are the finite upper bounds, strictly ascending; an
    implicit [+Inf] bucket is always appended.  Defaults to
    {!default_duration_buckets}. *)

val inc : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be [>= 0]. *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val observe : histogram -> float -> unit

val counter_value : counter -> int
val gauge_value : gauge -> float

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val cumulative_buckets : histogram -> (float * int) list
(** [(upper_bound, cumulative_count)] per bucket, ascending, ending with
    [(infinity, total_count)].  Cumulative counts are monotone by
    construction. *)

val series_count : t -> int

(** {2 Snapshots — cross-process metric transfer}

    A snapshot is the registry as plain, serializable data.  The worker
    side of the campaign service snapshots after every shard, {!diff}s
    against the previous snapshot and ships the delta in its reply; the
    daemon {!absorb}s each delta under a per-worker label, which is what
    puts worker-side histograms on the daemon's [/metrics] page. *)

type snapshot_value =
  | Counter_snapshot of int
  | Gauge_snapshot of float
  | Histogram_snapshot of {
      bounds : float list;
      counts : int list;
          (** Per-bucket (non-cumulative); one longer than [bounds],
              the last being the overflow bucket. *)
      sum : float;
      total : int;
    }

type snapshot_entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_help : string;
  e_value : snapshot_value;
}

val snapshot : t -> snapshot_entry list
(** Every series, in registration order. *)

val diff :
  before:snapshot_entry list ->
  after:snapshot_entry list ->
  snapshot_entry list
(** Activity between two snapshots of the same registry: counter and
    histogram entries become their increments, unchanged entries are
    dropped, gauges carry the latest value.  Series keyed by
    (name, labels). *)

val absorb : ?extra_labels:(string * string) list -> t -> snapshot_entry list -> unit
(** Merge a snapshot (usually a {!diff} delta) into [t], appending
    [extra_labels] to every series: counters add, gauges set, histogram
    buckets add element-wise.  Registers missing series on the fly;
    raises [Invalid_argument] on a kind or bucket-layout conflict, like
    registration does. *)

val to_prometheus : t -> string
(** Prometheus text exposition format, version 0.0.4: [# HELP] and
    [# TYPE] per metric family, histogram series expanded into
    [_bucket{le=...}] / [_sum] / [_count]. *)

val to_json : t -> string
(** The same snapshot as a deterministic JSON document
    [{"metrics": [...]}]. *)
