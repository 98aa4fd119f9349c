(** The occupancy index of a set-associative structure: which of its
    entries are valid.

    Per set it keeps a mask of valid ways, per structure a bitmap of
    non-empty sets and a count of valid entries.  {!Cache} and {!Btb}
    keep no other record of validity, and every walker over their live
    entries goes through {!iter}.  A residue snapshot, a capture or a
    restore therefore costs what the structure holds, not its
    geometry. *)

type t = private {
  sets : int;
  ways : int;
  masks : int array;  (** Per set: bit [w] is set when way [w] is valid. *)
  nonempty : int array;  (** Bitmap of the sets whose mask is non-zero. *)
  mutable count : int;  (** Valid entries in all. *)
}

(** [create ~sets ~ways] is an empty index.  A way mask is one OCaml
    int, so [ways] must be below [Sys.int_size]. *)
val create : sets:int -> ways:int -> t

(** [add t ~set ~way] marks the entry valid; [remove] marks it invalid.
    Both are idempotent. *)
val add : t -> set:int -> way:int -> unit

val remove : t -> set:int -> way:int -> unit

(** [clear t] marks every entry invalid, visiting only non-empty sets. *)
val clear : t -> unit

(** [free_way t set] is the lowest invalid way of [set], or [-1] when
    the set is full. *)
val free_way : t -> int -> int

(** [iter t entries f x] applies [f x c entries.(set).(way)] to every
    valid entry, where [c] is the entry's cursor, in set-then-way order.
    That order fixes the bytes of residue records, a cache flush's
    write-back order and fault injection's choice of line.  [f] may
    invalidate the entry it is given.  Passing [x] lets a walker be a
    closed function, so walking an empty structure allocates nothing. *)
val iter : t -> 'a array array -> ('b -> int -> 'a -> unit) -> 'b -> unit

(** A cursor names one entry as an [int]; these decode it. *)
val set_of : int -> int

val way_of : int -> int
