(** Sparse physical memory.

    Backing store for the whole memory hierarchy.  Data is held in 64-byte
    little-endian lines, one hash-table entry per line keyed by the line
    index, so a {!read_line} or {!write_line} costs one lookup; reads of
    unwritten memory return zero.  The cache models fetch whole lines with
    {!read_line} and write them back with {!write_line}. *)

type t

val line_bytes : int
(** Cache-line size shared by the whole hierarchy: 64. *)

val create : unit -> t

(** Snapshot form holding only the written lines — unlike a
    [Hashtbl.copy] it does not drag the backing table's bucket array
    along, so it stays proportional to the lines actually written.
    [restore_capture] overwrites [into] with the captured lines;
    nothing in the model iterates memory, so insertion order cannot
    affect behaviour. *)
type capture

val capture : t -> capture
val restore_capture : capture -> into:t -> unit

(** [read t ~addr ~size] reads [size] bytes (1, 2, 4 or 8) little-endian
    at [addr].  Misaligned reads are assembled byte by byte. *)
val read : t -> addr:Word.t -> size:int -> Word.t

(** [write t ~addr ~size v] writes the [size] low bytes of [v] at
    [addr]. *)
val write : t -> addr:Word.t -> size:int -> Word.t -> unit

(** [read_line t ~addr] reads the 64-byte line containing [addr] as eight
    words; element 0 is the lowest-addressed word. *)
val read_line : t -> addr:Word.t -> Word.t array

(** [write_line t ~addr line] stores eight words at the line containing
    [addr]. *)
val write_line : t -> addr:Word.t -> Word.t array -> unit

(** [words_written t] is the number of distinct 8-byte granules ever
    written, used by tests. *)
val words_written : t -> int
