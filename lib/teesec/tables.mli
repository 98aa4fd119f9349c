open! Import

(** Text rendering of the paper's tables, comparing our measured results
    with the published ones.  Used by the verification report and the
    CLI. *)

(** Table 1: TEESec component automation. *)
val table1 : unit -> string

(** Table 2: gadget inventory and corpus size.  The paper's per-phase
    times are testbed-specific; [teesec profile] measures ours. *)
val table2 : unit -> string

(** Table 3: leakage cases per core, paper vs measured. *)
val table3 : Campaign.result list -> string

(** Table 4: mitigation effectiveness per core, paper vs measured. *)
val table4 : Mitigation_eval.result list -> string

(** Machine-readable exports for downstream analysis: one row per
    leakage case. *)
val table3_csv : Campaign.result list -> string
