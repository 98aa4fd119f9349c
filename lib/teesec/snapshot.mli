open! Import

(** Snapshot/fork execution engine.

    Test cases within a campaign share long enclave-setup prefixes
    (create, measure, fill memory, seed secrets...).  This engine runs a
    shared prefix once, captures the whole environment ({!Env.snapshot})
    and deep-restores it into a fresh environment for every later case
    with the same prefix — the pre-silicon equivalent of an
    AFL-forkserver: emulate once, fork many.

    {b Keys.}  A cached prefix is identified by (config digest, gadget
    names up to the cut, the projection of {!Params.t} onto the union of
    the prefix gadgets' {!Gadget.param_deps}).  Snapshots are taken at
    {e every} cut point along a replayed prefix, so a case whose full
    prefix was never seen can still fork from the deepest
    parameter-compatible cut and replay only the tail.

    {b Admission and eviction.}  A snapshot is stored on the first
    sighting of its key — captures hold only the live machine state
    (see {!Uarch.Cache.capture}), so storing one costs less than
    replaying even the shortest gadget.  Slots are evicted
    least-recently-used beyond the configured capacity.

    {b Determinism.}  Restoring is byte-exact ({!Env.restore}), so a
    campaign run through the engine produces artifacts byte-identical to
    the replay-everything oracle — [test/test_differential.ml] pins
    campaign CSV, inject JSON and fuzz JSON across both paths at several
    job counts.  Caches are per-domain and owned by the engine, so a
    dropped engine frees them; only the statistics counters are shared
    (atomically). *)

type t

type stats = {
  hits : int;  (** Cases whose prefix was restored from a snapshot. *)
  misses : int;  (** Cases whose prefix was fully replayed. *)
  stores : int;  (** Snapshots captured. *)
  replayed_gadgets : int;  (** Prefix gadgets emitted the slow way. *)
  restored_gadgets : int;  (** Prefix gadgets skipped thanks to a hit. *)
}

(** [create ?slots ?obs config] — an engine for [config] with an LRU
    cache of [slots] snapshots per domain (default 1024 — enough to hold
    a full grid corpus's distinct seed-dependent cuts, so repeated
    seeds share full-depth prefixes across families without LRU
    thrash).  A slot holds only live state and shares what its prefix
    did not change with the slots before it ({!Uarch.Machine.snapshot}):
    after a full grid campaign the engine holds about 23 KB per slot on
    BOOM and 25 KB on XiangShan, against 35 and 55 KB when every
    capture copied its log prefix and replacement pointers.  [obs] (default
    [Obs.noop]) receives hit/miss/store counters
    ([teesec_snapshot_*_total]) and a restore-duration histogram
    ([teesec_snapshot_restore_seconds]); register it from the
    orchestrating domain before fanning out.  [wave] (default false)
    taps the pooled machines' logs; a snapshot's log mark then carries
    the wave records of the prefix, so spliced streams stay
    byte-identical to replayed ones.  Raises [Invalid_argument] when [slots < 1]. *)
val create : ?slots:int -> ?obs:Obs.t -> ?wave:bool -> Config.t -> t

(** The {!Config.hash} of the engine's config — runners use it to refuse
    an engine built for a different configuration. *)
val config_hash : t -> int64

(** [establish t tc] is an environment with [tc]'s setup/helper prefix
    (all gadgets but the last) established: restored from the deepest
    cached cut when one matches, with the remaining prefix gadgets
    replayed — and snapshotted at each cut on the way.  The access
    gadget is {e not} run; the caller emits it (plus any fault arming)
    on the returned environment. *)
val establish : t -> Testcase.t -> Env.t

(** Cumulative counters across all domains. *)
val stats : t -> stats
