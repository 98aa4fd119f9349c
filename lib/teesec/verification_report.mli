open! Import

(** One-shot verification report.

    Drives the whole pipeline for a set of cores — campaign, mitigation
    matrix and its performance ablation, coverage, recommendations,
    figure scenarios and the uBTB tag-width sweep — and renders a single
    markdown document, the deliverable a verification engineer would
    hand to the design team.  It is the one printer of the paper's
    tables and figures. *)

(** [generate ~full_corpus configs] runs everything and renders
    markdown, over the 585-case corpus when [full_corpus] and over the
    representative slice otherwise. *)
val generate : full_corpus:bool -> Config.t list -> string
