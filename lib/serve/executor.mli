open! Import

(** Shard execution: what one worker process does with one work item.

    The outcome payload is the Codec-encoded unit-of-merge of the
    corresponding pipeline — {!Campaign.case_outcome}s for campaigns,
    {!Inject_campaign.case_eval}s for injection, the report JSON for
    fuzzing — which is also exactly what the store keeps under
    [verdicts/].  Execution is deterministic, so payload bytes are a
    pure function of the work item. *)

type engines
(** Per-process snapshot-engine cache, keyed by (configuration hash,
    wave), so a worker re-uses captured machine prefixes across every
    shard of the same configuration — without ever sharing pooled
    machines between wave-tapped and untapped shards.  Engines carry
    the observability sink they were created with; every execution
    threads it into the underlying pipelines.  Verdict payloads stay
    byte-identical whether the sink is noop or active — the determinism
    boundary [test/test_obs.ml] pins. *)

val create_engines : ?obs:Obs.t -> unit -> engines

(** [execute ~engines ~wave work] runs the shard to its outcome payload
    plus its wave blob: a {!Wave.Event.frame_streams} framing of the
    shard's per-case streams when [wave] is true, [""] otherwise.  The
    payload is byte-identical for every [wave] setting — waves never
    enter the content-addressed store.  Raises [Invalid_argument] on a
    spec {!Request.validate} rejects — excluded by submit-time
    validation. *)
val execute : engines:engines -> wave:bool -> Request.work -> string * string

val encode_campaign_outcomes : Campaign.case_outcome list -> string
val decode_campaign_outcomes : string -> Campaign.case_outcome list
val encode_inject_evals : Inject_campaign.case_eval list -> string
val decode_inject_evals : string -> Inject_campaign.case_eval list
