open! Import

(** The gadget inventory.

    Matches the paper's prototype (§5): 8 setup gadgets, 12 helper
    gadgets and 15 access gadgets (13 data paths + 2 metadata paths).
    Setup gadgets drive the TEE API; helper gadgets seed secrets and
    establish microarchitectural preconditions; each access gadget
    exercises exactly one {!Access_path}. *)

(** {1 Setup gadgets} *)

val create_enclave : Gadget.t
val create_attacker_enclave : Gadget.t
val exe_enclave : Gadget.t

(** {1 Helper gadgets} *)

val fill_enc_mem : Gadget.t
val fill_enc_mem_nodrain : Gadget.t
val evict_enc_l1 : Gadget.t
val evict_enc_l2 : Gadget.t
val seed_sm_secret : Gadget.t
val touch_sm_secret : Gadget.t
val seed_host_secret : Gadget.t
val build_host_page_tables : Gadget.t
val prime_hpcs : Gadget.t
val prime_ubtb : Gadget.t
val enclave_branch_workload : Gadget.t

(** {1 Access gadgets} *)

(** [access_gadget path] is the gadget exercising [path]. *)
val access_gadget : Access_path.t -> Gadget.t

val setup_gadgets : Gadget.t list
val helper_gadgets : Gadget.t list
val access_gadgets : Gadget.t list

(** {1 Shared construction details (used by scenarios and tests)} *)

(** The instruction index at which the aliasing branch sits in the prime,
    probe and enclave-workload programs of the M2 gadget family, as a
    function of the variant parameter. *)
val btb_branch_index : variant:int -> int
