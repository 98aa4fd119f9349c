open! Import

(** Text rendering of the paper's tables, comparing our measured results
    with the published ones.  Used by the benchmark harness and the
    CLI. *)

(** Table 1: TEESec component automation. *)
val table1 : unit -> string

(** Table 2: gadget inventory, corpus size and per-phase timing.
    [timings] supplies measured seconds per phase as
    [(constructor, checker, avg_testcase)]. *)
val table2 : ?timings:float * float * float -> unit -> string

(** Table 3: leakage cases per core, paper vs measured. *)
val table3 : Campaign.result list -> string

(** Table 4: mitigation effectiveness per core, paper vs measured. *)
val table4 : Mitigation_eval.result list -> string

(** Machine-readable exports for downstream analysis: one row per
    leakage case. *)
val table3_csv : Campaign.result list -> string
