open! Import

(** Artifact assembly: shard outcome payloads → the one-shot CLI
    artifact, byte for byte.

    The determinism contract of the service: for any request,
    [assemble spec payloads] (payloads in plan order, however they were
    produced — cold or warm store, any worker count) equals the artifact
    the one-shot CLI writes for the same parameters — the campaign
    Table 3 CSV, the inject robustness JSON, the fuzz report JSON. *)

(** [assemble spec payloads] decodes and concatenates the shard
    payloads in plan order and folds them through the corresponding
    aggregator.  [Error] reports undecodable payloads (a corrupt store
    object that slipped past validation, or a version skew bug). *)
val assemble : Request.spec -> string list -> (string, string) result
