(** A hand-rolled fixed-size domain pool.

    OCaml 5 gives us shared-memory parallelism through [Domain], but the
    stdlib ships no task pool.  This module is the minimal one the
    campaign runner needs: a fixed set of worker domains pulling chunks
    of work from a shared queue (mutex + condition variable), with a
    [parmap]-style helper that fans a list out in chunks and merges the
    results back {e in input order}, so callers get deterministic,
    id-ordered output no matter how the chunks were interleaved at run
    time.

    Scheduling is chunked self-service rather than per-element: the
    input is split into [~4×domains] contiguous slices and idle workers
    grab the next unclaimed slice, which approximates work stealing
    (fast workers drain more slices) without per-element queue
    traffic.

    The pool is intended for one orchestrating caller at a time:
    [run_all] waits for the pool-wide pending count to reach zero.

    With an active {!Obs.t} sink the pool reports per-worker busy/idle
    spans ([pool/task] / [pool/idle], one trace track per worker domain)
    and per-worker task counters ([teesec_pool_tasks_total]); with
    [Obs.noop] (the default) instrumentation is a single branch and the
    run-time behaviour is exactly the uninstrumented one. *)

type t

(** [run_all t tasks] enqueues every task and blocks until all of them
    (and any other outstanding work on the pool) have finished.  A task
    that raises is counted as finished; its exception is swallowed, so
    wrap tasks that can fail ([map] does this for you). *)
val run_all : t -> (unit -> unit) list -> unit

(** [map ?chunk t f input] applies [f] to every element of [input] on
    the pool and returns the results in input order.  [chunk] overrides
    the slice length (default [max 1 (n / (4 * size))]).  If any
    application raised, the first exception (lowest input index) is
    re-raised in the caller after all chunks have settled. *)
val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** [with_pool ?obs ~domains f] runs [f] over a fresh pool and always
    shuts it down, even if [f] raises. *)
val with_pool : ?obs:Obs.t -> domains:int -> (t -> 'a) -> 'a

(** [parmap ?obs ?chunk ~jobs f xs] is [map] over a transient pool of
    [min jobs (length xs)] domains, returning a list in input order.
    [jobs <= 1] (or a short list) degrades to plain [List.map] on the
    calling domain — no domain is ever spawned, so results and exception
    behaviour are exactly the sequential ones (each element still gets
    its [pool/task] span when [obs] is active). *)
val parmap :
  ?obs:Obs.t -> ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** The host's recommended domain count
    ([Domain.recommended_domain_count]); what [--jobs 0] resolves to. *)
val default_jobs : unit -> int
