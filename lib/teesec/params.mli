open! Import

(** Test-case parameters.

    Every gadget is parameterised; the fuzzer instantiates these fields
    to generate multiple test cases per access path (§4.2).  The same
    record shape serves every gadget; each interprets the fields it
    cares about. *)

type t = {
  offset : int;  (** Byte offset of the access inside the secret line. *)
  width : int;  (** Access width in bytes (1, 2, 4 or 8). *)
  variant : int;  (** Gadget-specific micro-state permutation selector. *)
  seed : Word.t;  (** Secret-derivation seed for this test case. *)
}

val default : t

(** The access widths the gadgets implement. *)
val valid_widths : int list

(** [make ()] builds a parameter record.  @raise Invalid_argument when
    [width] is not one of {!valid_widths}. *)
val make : ?offset:int -> ?width:int -> ?variant:int -> ?seed:Word.t -> unit -> t
val to_string : t -> string
