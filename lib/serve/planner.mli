open! Import

(** Shard planner: split a request into independently executable work
    items with stable content digests.

    Shards partition the request's corpus {e exactly} (no dropped or
    duplicated cases — a qcheck property pins this), and are contiguous
    slices of it, so the daemon reproduces the one-shot result by
    concatenating shard outcomes in plan order and folding them through
    the campaign/inject aggregators.

    The split axes follow the request shape: grid corpora (slice/full)
    break at gadget-family (access-path) boundaries, then at
    [max_shard_cases], so each shard covers one family's seed-range;
    random corpora are path-interleaved, so they break on seed-range
    alone.  Fuzz requests are a single shard — the engine is a
    sequential feedback loop whose candidate stream cannot be split
    without changing it — but still get a content digest, so a warm
    store satisfies a re-submitted fuzz campaign without executing
    anything. *)

type shard = {
  index : int;  (** Position in plan (= merge) order. *)
  digest : string;  (** Verdict key: content digest of the work item. *)
  corpus_digest : string;  (** Key of the shard's case slice; "" for fuzz. *)
  family : string;  (** Gadget family (access path) or "seed-range"/"fuzz". *)
  work : Request.work;
}

(** [plan ?max_shard_cases spec] validates the request
    ({!Request.validate}) and splits it.  [Error] is the validator's
    message: a bad spec is rejected here, at submit time, before any
    worker sees it. *)
val plan :
  ?max_shard_cases:int -> Request.spec -> (shard list, string) result

(** The shard's case slice rendered as inspectable text (what the store
    keeps under [corpus/]). *)
val corpus_text : Request.work -> string

val default_max_shard_cases : int
