open! Import

(** Memory access modalities (verification-plan enumeration).

    Thirteen data access paths and two metadata paths, matching the
    paper's gadget inventory (§5: "2 metadata access gadgets and 13 data
    access gadgets, one for each memory access path").  Each path records
    whether it is explicit or implicit, its permission-check policy on
    each core (§4.1.2), and the leakage cases it can surface. *)

type t =
  | Exp_acc_enc_l1  (** Explicit load; secret resident in the L1D. *)
  | Exp_acc_enc_l2  (** Explicit load; secret in the L2 only. *)
  | Exp_acc_enc_mem  (** Explicit load; secret in memory only. *)
  | Exp_acc_enc_stb  (** Explicit load; secret pending in the store buffer. *)
  | Exp_acc_enc_misaligned  (** Misaligned explicit load straddling a boundary. *)
  | Exp_acc_sm  (** Explicit load targeting security-monitor memory. *)
  | Exp_acc_cross_enclave  (** Explicit load from one enclave into another. *)
  | Exp_acc_host_from_enclave  (** Explicit enclave load of host memory. *)
  | Exp_store_enc  (** Explicit host store into enclave memory. *)
  | Imp_acc_pref  (** Implicit next-line prefetcher access. *)
  | Imp_acc_ptw_root  (** Implicit page walk with a hijacked root pointer. *)
  | Imp_acc_ptw_legit  (** Implicit page walk through legitimate tables. *)
  | Imp_acc_destroy_memset  (** Implicit refills of the destroy memset. *)
  | Meta_hpc  (** Metadata: hardware performance counters. *)
  | Meta_btb  (** Metadata: branch-target-buffer collisions. *)

val all : t list
val data_paths : t list
val metadata_paths : t list
val equal : t -> t -> bool
val to_string : t -> string
val description : t -> string

(** Permission-check policy of a path on a given core (§4.1.2): checked
    before the access, checked in parallel with it (speculatively
    bypassable), or not checked at all. *)
type perm_policy = Checked_serial | Checked_parallel | Unchecked

val perm_policy_to_string : perm_policy -> string
val perm_policy : t -> Config.core_kind -> perm_policy

(** Leakage cases a finding on this path can be classified as. *)
val candidate_cases : t -> Case.id list

(** Structures this path moves data or metadata through, for the plan's
    cross-reference with the storage-element inventory. *)
val structures : t -> Structure.t list
