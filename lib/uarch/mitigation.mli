(** Countermeasure knobs (Table 4 of the paper).

    Each constructor corresponds to one mitigation column.  Mitigations
    are attached to a core configuration; the flush-style ones run at
    every context switch across an isolation boundary, while
    [Clear_illegal_data_returns] changes the fault path of the load/store
    unit and the page-table walker. *)

type t =
  | Flush_l1d
  | Flush_store_buffer
  | Clear_illegal_data_returns
      (** Zero the data returned by any access that fails its permission
          check, and suppress the associated fill. *)
  | Flush_lfb
  | Flush_bpu_hpc  (** Flush (or equivalently tag) branch predictors and
                       reset performance counters. *)
  | Flush_everything  (** All flushes combined. *)
  | Tag_bpu_hpc
      (** Extension (paper §8): tag branch-predictor entries with the
          installing context and bank the performance counters per
          domain, instead of flushing.  Mitigates M1/M2 without the
          flush cost. *)

(** The six mitigations of the paper's Table 4. *)
val all : t list

(** Countermeasures the paper proposes but does not evaluate; we
    implement and evaluate them as extensions. *)
val extensions : t list
val equal : t -> t -> bool
val to_string : t -> string

(** [active mitigations m] is true when [m] or a mitigation implying it
    is in [mitigations]. *)
val active : t list -> t -> bool
