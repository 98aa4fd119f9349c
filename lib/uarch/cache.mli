open Import

(** Generic set-associative, write-back cache with 64-byte lines.

    Used for both the L1 data cache and the unified L2.  Lines carry
    their full data (eight 64-bit words) because the TEESec checker
    searches cache contents for verbatim enclave secrets.  Replacement is
    round-robin per set, which is enough for gadgets to construct
    deterministic eviction patterns. *)

type t

val create : sets:int -> ways:int -> t

(** [occupancy t] is the number of valid lines, read from the
    occupancy index ({!Occupancy}). *)
val occupancy : t -> int

(** A live-lines-only snapshot form: [capture] records just the valid
    lines (plus the round-robin victim pointers), so capturing and
    holding a snapshot of a mostly-empty cache costs a few hundred
    words instead of one record per (set, way).  [restore_capture]
    invalidates the lines [into] holds and rewrites the captured ones;
    both walk only valid lines, so a restore costs what the two states
    hold, not the geometry.  It raises [Invalid_argument] on geometry
    mismatch.  Captures are restore sources only — they are not live
    caches. *)
type capture

val capture : t -> capture
val restore_capture : capture -> into:t -> unit

(** [lookup t ~addr] is the line containing [addr], if cached. *)
val lookup : t -> addr:Word.t -> Word.t array option

(** [read_word t ~addr] reads the aligned 8-byte word at [addr] from a
    cached line. *)
val read_word : t -> addr:Word.t -> Word.t option

(** [write_word t ~addr v] updates the aligned word at [addr] if the line
    is present, marking it dirty.  Returns [false] on a miss.  Allocates
    nothing. *)
val write_word : t -> addr:Word.t -> Word.t -> bool

(** [write_run t ~addr ~n v] writes [v] to the [n] aligned words from
    [addr], which must all lie in [addr]'s line, if that line is
    present, marking it dirty: one lookup for the run.  Returns [false]
    on a miss.  Allocates nothing. *)
val write_run : t -> addr:Word.t -> n:int -> Word.t -> bool

(** [insert t ~addr line] installs a line, returning the evicted victim
    [(addr, line, dirty)] if a valid line was displaced. *)
val insert : t -> addr:Word.t -> Word.t array -> (Word.t * Word.t array * bool) option

(** [evict t ~addr] removes the line containing [addr] if present,
    returning it with its dirty bit — the Flush_Enc_L1-style helper
    gadgets rely on this. *)
val evict : t -> addr:Word.t -> (Word.t array * bool) option

(** [flush t] invalidates everything, returning the dirty lines as
    [(addr, line)] pairs for write-back, last valid line (in set then
    way order) first. *)
val flush : t -> (Word.t * Word.t array) list

(** [contains t ~addr] is true when the line holding [addr] is valid.
    Allocates nothing. *)
val contains : t -> addr:Word.t -> bool

(** [valid_lines t] lists [(addr, line)] for every valid line, in set
    then way order. *)
val valid_lines : t -> (Word.t * Word.t array) list

(** [snapshot t log] appends the valid lines, in set then way order, to
    the log's open record: one entry per word (slot = word index) so the
    checker can match secrets directly.  It visits only valid lines, so
    snapshotting an empty cache allocates nothing. *)
val snapshot : t -> Log.t -> unit

(** [corrupt_bit t ~select ~bit] flips one bit of one valid line for
    fault injection: [select] deterministically picks the line and the
    word inside it, [bit] the bit position (both wrap).  Returns the
    word's address and its new value, or [None] when the cache holds no
    valid line.  The line is marked dirty so the corruption propagates
    on write-back. *)
val corrupt_bit : t -> select:int -> bit:int -> (Word.t * Word.t) option
