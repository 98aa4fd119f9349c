open Import

(** Line-fill buffer (BOOM) / miss queue (XiangShan).

    The LFB stages 64-byte refills between the L2 and the L1D.  It is the
    structure behind leakage cases D1–D3: prefetcher and page-table-walker
    fills land here without permission checks, and — on BOOM — completed
    entries retain their data until the slot is reallocated, so enclave
    lines linger across context switches.

    [retains_stale] selects between the two behaviours: when true
    (BOOM-like), {!complete} only clears the valid bit and the data stays
    visible; when false (XiangShan-like), completion zeroes the slot. *)

type t

val create : entries:int -> retains_stale:bool -> t

(** [copy t] is a deep copy; slot payloads are duplicated. *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src] without
    allocating.  Raises [Invalid_argument] on a geometry mismatch. *)
val restore_into : t -> into:t -> unit

(** [fill t ~addr ~data] allocates a slot (round-robin over the oldest)
    and stores the incoming line.  Returns the slot index. *)
val fill : t -> addr:Word.t -> data:Word.t array -> int

(** [complete t ~slot] marks the refill finished and applies the stale
    retention policy. *)
val complete : t -> slot:int -> unit

(** [flush t] clears every slot including stale data. *)
val flush : t -> unit

(** [flush_partial t] models a faulty flush that only clears the
    even-indexed slots — odd slots keep their (possibly stale) data. *)
val flush_partial : t -> unit

(** [occupied t] counts in-flight (valid) entries. *)
val occupied : t -> int

(** [holds_value t v] is true when any slot — including stale ones —
    contains word [v]. *)
val holds_value : t -> Word.t -> bool

(** [snapshot t log] appends every slot that holds data (valid or stale)
    to the log's open record, one entry per word. *)
val snapshot : t -> Log.t -> unit

(** [corrupt_bit t ~select ~bit] flips one bit of one data-holding slot
    (valid or stale) for fault injection; [select] picks slot and word,
    [bit] the bit position, both wrapping.  Returns the word's address
    and new value, or [None] when no slot holds data. *)
val corrupt_bit : t -> select:int -> bit:int -> (Word.t * Word.t) option
