open! Import

(** Mitigation performance ablation (extension).

    The paper notes that "some of the proposed countermeasures can have a
    significant performance penalty.  We leave it to future work to
    evaluate the performance impact" (§8).  This module is that
    evaluation: a representative host/enclave workload — repeated enclave
    entries and exits with memory- and branch-heavy work on both sides —
    is executed under each countermeasure, and the cycle counts are
    compared against the unmitigated baseline.

    Flush-style mitigations pay twice: the flush work itself at every
    context switch, and the refill misses afterwards.  The tagging
    extension pays neither, which is the quantitative argument for it. *)

type measurement = {
  label : string;
  mitigations : Mitigation.t list;
  cycles : int;  (** Total workload cycles. *)
  l1_misses : int64;
  overhead_pct : float;  (** Relative to the unmitigated baseline. *)
}

(** Workload mixes: flushing hurts switch-heavy code the most, because
    every boundary crossing pays the flush and the refills, while
    compute-heavy code amortises them. *)
type workload = Mixed | Switch_heavy | Compute_heavy

type result = {
  config : Config.t;
  workload : workload;
  baseline_cycles : int;
  rounds : int;
  measurements : measurement list;  (** Baseline first. *)
}

(** [workload_cycles config ~workload ~rounds] runs the reference
    workload: [rounds] iterations of host work and enclave entry/exit
    (the mix depending on [workload]), preceded by enclave setup and
    followed by destroy.  Returns steady-state loop cycles and L1
    misses. *)
val workload_cycles : Config.t -> workload:workload -> rounds:int -> int * int64

(** [evaluate ?workload ?rounds ?jobs config] measures the baseline,
    each Table 4 mitigation, and the tagging extension.  [jobs] (default
    1) runs the independent mitigation settings across that many
    domains; overhead percentages are derived from the ordered results
    afterwards, so the output is identical for every job count. *)
val evaluate :
  ?workload:workload -> ?rounds:int -> ?jobs:int -> Config.t -> result

(** [table results] renders the ablation for several cores side by
    side. *)
val table : result list -> string
