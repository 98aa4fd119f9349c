open Import

(** Committed-store buffer (XiangShan's sbuffer / BOOM's post-commit
    store queue).

    Stores commit into this FIFO and drain lazily into the L1D.  Because
    the buffer is not flushed on context switches, enclave stores issued
    just before an enclave exit are still pending when the host runs —
    the setup for leakage case D8, where XiangShan transiently forwards
    buffered data to a faulting host load. *)

type entry = {
  addr : Word.t;
  size : int;
  value : Word.t;
  ctx_note : string;
  origin : Log.origin;  (** Provenance carried through the drain. *)
}

type t

val create : entries:int -> t

(** [copy t] is an independent copy (entries are immutable, so the list
    is shared structurally). *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src]'s contents.
    Raises [Invalid_argument] on a capacity mismatch. *)
val restore_into : t -> into:t -> unit

(** [is_full t] — the LSU must drain before pushing when full. *)
val is_full : t -> bool

(** [push t entry] appends a committed store.  The caller drains first if
    full. *)
val push : t -> entry -> unit

(** Result of a forwarding lookup: the youngest overlapping store either
    fully covers the load (its bytes are forwarded), partially overlaps
    it (real LSUs cannot merge across entries and must drain first), or
    no store overlaps at all. *)
type forward_result = Forwarded of Word.t | Partial_conflict | No_match

(** [forward t ~addr ~size] consults the youngest overlapping store for
    a load of [size] bytes at [addr]. *)
val forward : t -> addr:Word.t -> size:int -> forward_result

(** [drain t] removes and returns all entries, oldest first. *)
val drain : t -> entry list

(** [take_oldest t count] removes and returns only the [count] oldest
    entries (a partial drain, for faulty-flush injection).  Younger
    entries stay buffered. *)
val take_oldest : t -> int -> entry list

(** [corrupt_bit t ~select ~bit] flips one bit of one buffered store's
    value for fault injection ([select] picks the entry, both wrap).
    Returns the store's address and new value, or [None] when empty. *)
val corrupt_bit : t -> select:int -> bit:int -> (Word.t * Word.t) option

val clear : t -> unit
val occupancy : t -> int
val holds_value : t -> Word.t -> bool

(** [snapshot t log] appends the buffered stores, oldest first, to the
    log's open record. *)
val snapshot : t -> Log.t -> unit
