(** A span-based tracer exporting Chrome trace-event JSON.

    Spans are begin/end pairs with optional attributes, stamped with a
    {!Clock.t} reading and the calling domain's id.  Each domain appends
    to its own buffer (one mutex guards the whole tracer, but events are
    coarse — per task, batch or phase — so contention is negligible);
    {!to_chrome_json} merges the buffers into one time-sorted event list
    loadable in Perfetto or [chrome://tracing], with one track (tid) per
    domain.

    Begin/end pairs must nest properly {e within a domain}:
    [end_span] raises [Invalid_argument] on a name that does not match
    the innermost open span.  Prefer the scoped {!span}, which closes on
    exceptions too; use explicit pairs only for phases that cross
    function boundaries. *)

type arg = String of string | Int of int | Float of float | Bool of bool

type phase = Begin | End | Instant | Metadata

(** One completed trace event.  The type is concrete so events can cross
    a process boundary: a worker {!drain}s its buffer, ships the events
    over the wire, and the daemon re-bases their timestamps and merges
    them with {!chrome_json_of_processes}. *)
type event = {
  ph : phase;
  name : string;
  ts : int64;  (** Nanoseconds on the recording process's clock. *)
  tid : int;  (** Recording domain id — the track within a process. *)
  args : (string * arg) list;
}

type t

val create : ?clock:Clock.t -> unit -> t
(** [clock] defaults to a fresh {!Clock.monotonic}. *)

val begin_span : t -> ?args:(string * arg) list -> string -> unit
val end_span : t -> string -> unit

val span : t -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Scoped span: always closed, even if the thunk raises. *)

val instant : t -> ?args:(string * arg) list -> string -> unit
(** A zero-duration marker event. *)

val name_thread : t -> string -> unit
(** Label the calling domain's track in the exported trace. *)

val unclosed : t -> string list
(** Names of currently open spans across all domains (innermost first
    per domain); [[]] once every begin has been ended. *)

val events : t -> event list
(** A snapshot of every recorded event across all domains, sorted by
    timestamp (stable, so per-domain nesting order survives equal
    stamps).  The tracer keeps its events. *)

val drain : t -> event list
(** Like {!events}, but removes the returned events from the tracer.
    Open-span bookkeeping is untouched: call it at a point where every
    span of interest has been ended (the worker drains after each
    shard's root span closes).  What makes per-shard deltas from one
    long-lived tracer. *)

val shift_events : int64 -> event list -> event list
(** [shift_events offset events] adds [offset] ns to every timestamp —
    how the daemon aligns a worker's clock to its own. *)

val to_chrome_json : t -> string
(** The merged buffers as a Chrome trace-event JSON document
    ({!Json.to_document}) [{"traceEvents": [...]}], sorted by timestamp
    (microseconds), one event per line. *)

val chrome_json_of_processes : (int * string * event list) list -> string
(** [chrome_json_of_processes [(pid, process_name, events); ...]] builds
    one merged multi-process Chrome trace: a [process_name] metadata
    record per pid followed by all events globally sorted by timestamp.
    Callers must have aligned the event timestamps to one clock (see
    {!shift_events}); pids should be distinct. *)
