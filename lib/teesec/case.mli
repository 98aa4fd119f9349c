open! Import

(** The paper's leakage cases (Table 3).

    Eight data cases (violations of principle P1) and two metadata cases
    (violations of P2).  [expected] encodes the paper's per-core results,
    which EXPERIMENTS.md compares our campaign output against. *)

type id = D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | M1 | M2

val all : id list

(** [index c] is [c]'s position in {!all}. *)
val index : id -> int

val compare : id -> id -> int
val equal : id -> id -> bool
val to_string : id -> string
val pp : Format.formatter -> id -> unit

(** Data cases violate P1; metadata cases violate P2. *)
type principle = P1 | P2

val principle : id -> principle

(** One-line description, following the paper's wording. *)
val description : id -> string

(** [expected id core] is the paper's Table 3 verdict: was the case found
    on this core? *)
val expected : id -> Config.core_kind -> bool
