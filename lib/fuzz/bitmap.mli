(** AFL-style coverage bitmap.

    One byte per {!Simlog.Edge} index; each bit of the byte records that
    the edge has been hit with a count falling into the corresponding
    logarithmic bucket (1, 2, 3, 4–7, 8–15, 16–31, 32–127, 128+).  A
    test case is {e interesting} when it sets at least one bit that no
    earlier test case set — either a brand-new edge or a familiar edge
    hit an order of magnitude more often. *)

type t

val create : unit -> t
val equal : t -> t -> bool

(** [bucket count] is the bucket bit (0–7) for a raw hit count [>= 1]. *)
val bucket : int -> int

(** [add t edges] merges [(edge index, raw hit count)] observations and
    returns the number of newly set bits (0 = nothing novel). *)
val add : t -> (int * int) list -> int

(** [union a b] is a fresh bitmap covering everything [a] or [b] covers. *)
val union : t -> t -> t

(** Number of edge indices with at least one bucket bit set. *)
val covered_edges : t -> int

(** Total number of set bucket bits. *)
val covered_bits : t -> int
