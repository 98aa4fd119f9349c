open Import

(** Supervisor Binary Interface of the security monitor.

    The host supervisor requests enclave management by loading a function
    identifier into [a7] (and arguments into [a0]...) and executing
    [ECALL], exactly as Keystone's SM does.  These are the TEE API entry
    points the verification plan enumerates and around which the setup
    gadgets are built. *)

type call =
  | Create_enclave  (** a0 = requested size; returns eid in a0. *)
  | Run_enclave  (** a0 = eid. *)
  | Stop_enclave  (** a0 = eid. *)
  | Resume_enclave  (** a0 = eid. *)
  | Exit_enclave  (** From inside an enclave. *)
  | Destroy_enclave  (** a0 = eid; zeroes enclave memory. *)
  | Attest_enclave  (** a0 = eid; returns measurement in a0. *)

val all : call list
val to_code : call -> Word.t
val of_code : Word.t -> call option
val to_string : call -> string

(** Value returned in [a0] on an SBI error. *)
val error_code : Word.t
