open Import

(** Enclave lifecycle.

    Mirrors Keystone's enclave state machine: an enclave is created,
    run, may stop and resume any number of times, exits, and can only be
    destroyed from the stopped or exited states (the check the D3 gadget
    goes through before the destroy memset). *)

type state = Fresh | Running | Stopped | Exited | Destroyed

val state_to_string : state -> string

type t = {
  id : int;
  base : Word.t;  (** Physical base of the enclave's PMP region. *)
  size : int;
  mutable state : state;
  mutable measurement : Word.t;  (** Hash of the region at creation. *)
  mutable saved_regs : Word.t array option;
      (** Register bank while the enclave is stopped. *)
}

val create : id:int -> base:Word.t -> size:int -> t

(** [copy t] is a deep copy (the saved register bank is duplicated), so
    mutating either record never affects the other. *)
val copy : t -> t

(** [transition t ~to_state] applies the state machine; [Error] carries
    the current state when the transition is illegal. *)
val transition : t -> to_state:state -> (unit, state) result

(** [can_destroy t] — only stopped or exited enclaves may be
    destroyed. *)
val can_destroy : t -> bool

(** [contains t ~addr] is true when [addr] falls inside the enclave's
    region. *)
val contains : t -> addr:Word.t -> bool
