open! Import

(** Verification-plan coverage.

    The paper stresses that "the main cost of the verification plan is
    ensuring coverage of all memory access paths" (§5).  This module
    measures, for a given corpus on a given core, which access paths were
    exercised, which microarchitectural structures the log actually
    observed, and which access-path provenances (origins) appeared — so a
    user extending the plan can see at a glance what their corpus does
    and does not reach. *)

type t = {
  config : Config.t;
  testcases : int;
  per_path : (Access_path.t * int) list;  (** Test cases per access path. *)
  paths_covered : int;
  structures_observed : Structure.t list;
      (** Structures that appeared in at least one [Write] event. *)
  origins_observed : Log.origin list;
  path_coverage_pct : float;
  structure_coverage_pct : float;
      (** Of the structures the machine models and can emit writes for. *)
}

(** [measure ?jobs config testcases] runs the corpus and accumulates
    coverage.  [jobs] (default 1) fans the runs out across domains; the
    per-case observations are merged in corpus order, so the result is
    identical for every job count. *)
val measure : ?jobs:int -> Config.t -> Testcase.t list -> t

val pp : Format.formatter -> t -> unit
