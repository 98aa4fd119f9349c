(** Software execution contexts.

    TEESec's security principles are phrased in terms of who is running:
    principle P1 forbids enclave data in the microarchitectural state
    whenever the CPU is {e not} in trusted enclave execution mode.  Every
    simulation-log record is therefore stamped with the context that was
    architecturally executing at that cycle. *)

type t =
  | Host of Riscv.Priv.t  (** Untrusted host user or supervisor code. *)
  | Enclave of int  (** Enclave with the given id. *)
  | Monitor  (** The Keystone-style security monitor (machine mode). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [to_string t] is ["host-S"], ["enclave-3"] or ["monitor"]: one
    shared string per context (enclave ids below 64), so naming the
    context allocates nothing. *)
val to_string : t -> string

(** [of_string s] parses the rendering of [to_string]. *)
val of_string : string -> t option
