(** Round-robin replacement pointers, one per set, shared copy-on-write
    with captures: {!Cache} and {!Btb} replace through this module.

    A pointer moves only when a full set evicts, so copying the pointers
    into every capture would mostly copy what nothing changed.  {!capture}
    and {!restore} share the array instead and mark it shared; {!victim},
    its only writer, copies a shared array first.  A captured array is
    thus never written again. *)

type t

(** [create ~sets ~ways] points every set at way 0. *)
val create : sets:int -> ways:int -> t

(** The pointers at one moment; immutable. *)
type capture

val capture : t -> capture

(** [restore t c] makes [t] replace from the pointers [c]. *)
val restore : t -> capture -> unit

(** [victim t set] is the way of full set [set] to replace next; it
    moves the set's pointer on. *)
val victim : t -> int -> int
