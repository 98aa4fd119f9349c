open! Import

(** Mitigation recommendation (extension).

    The paper's §8 discusses countermeasures qualitatively and notes that
    "not all mitigations need to be deployed in all systems depending on
    threat models".  This module makes that trade-off concrete: it
    evaluates combinations of countermeasures against the measured
    campaign and the measured overhead, and ranks them — fewest residual
    leakage cases first, cheapest second.

    A structural consequence the paper also reaches shows up immediately:
    on BOOM no combination of the evaluated knobs closes D1, because the
    unchecked prefetcher path cannot be flushed away — it needs a
    hardware change (a PMP check on prefetch requests). *)

type recommendation = {
  mitigations : Mitigation.t list;
  closes : Case.id list;  (** Baseline cases this set eliminates. *)
  residual : Case.id list;  (** Cases still found under the set. *)
  overhead_pct : float;  (** Measured on the mixed reference workload. *)
}

type result = {
  config : Config.t;
  baseline : Case.id list;
  ranked : recommendation list;  (** Best first. *)
}

(** [candidate_sets] is every combination of up to two mitigations
    (flush-everything subsumes its components and is offered alone). *)
val candidate_sets : Mitigation.t list list

(** [evaluate config] measures every candidate set. *)
val evaluate : Config.t -> result

(** [best result] is the top-ranked recommendation. *)
val best : result -> recommendation

val pp_result : Format.formatter -> result -> unit
