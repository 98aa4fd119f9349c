open! Import

(** Sampled fault plans.

    A plan is the unit of an injection campaign: a small set of
    concrete faults (model + cycle window + entry/bit selectors) that
    is applied to every test case of a run.  Plans are drawn from a
    SplitMix64 stream, so the same [seed] and [count] always produce
    the same plans — any robustness finding can be replayed exactly. *)

type fault = {
  model : Fault_model.t;
  window_start : int;  (** Cycle at which the fault fires / arms. *)
  window_len : int;
      (** Cycles a {!Fault_model.windowed} fault stays armed; one-shot
          faults ignore it. *)
  select : int;  (** Deterministic entry selector (wraps in the machine). *)
  bit : int;  (** Bit selector for bit-flip faults (wraps). *)
}

type t = {
  id : int;  (** Index within the sampled batch. *)
  plan_seed : Word.t;  (** Per-plan SplitMix64 seed, derived from the campaign seed. *)
  faults : fault list;  (** 1–3 faults, sorted by [window_start]. *)
}

(** [sample ~seed ~count] draws [count] plans.  Plan [i] depends only on
    [seed] and [i], so batches of different sizes share a prefix. *)
val sample : seed:Word.t -> count:int -> t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
