open! Import

(** An assembled test case: the ordered gadget sequence the runner
    executes on a fresh machine, together with its parameters. *)

type t = {
  id : int;
  path : Access_path.t;
  gadgets : Gadget.t list;  (** Setup and helper chain, access gadget last. *)
  params : Params.t;
}

(** [split t] is [t]'s setup and helper chain and its access gadget.
    Raises [Invalid_argument] on a test case with no gadgets. *)
val split : t -> Gadget.t list * Gadget.t

val name : t -> string
val pp : Format.formatter -> t -> unit
