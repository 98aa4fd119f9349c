open Import

(** Data TLB.

    Caches sv39 translations at 4-KiB page granularity.  A miss triggers
    the hardware page-table walker (see {!Machine}), whose implicit
    memory accesses are the D2 leakage path.  Entries record the
    permissions of the leaf PTE so that later hits re-check them. *)

type entry = { vpn : Word.t; ppn : Word.t; perm : Page_table.pte_perm }

type t

val create : entries:int -> t

(** [copy t] is an independent copy (entries themselves are immutable and
    shared). *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src] without
    allocating.  Raises [Invalid_argument] on a size mismatch. *)
val restore_into : t -> into:t -> unit

(** [lookup t ~vaddr] finds a translation for the page of [vaddr]. *)
val lookup : t -> vaddr:Word.t -> entry option

(** [insert t ~vaddr ~paddr ~perm] installs the page translation,
    evicting round-robin when full. *)
val insert : t -> vaddr:Word.t -> paddr:Word.t -> perm:Page_table.pte_perm -> unit

(** [translate entry ~vaddr] combines the cached PPN with the page
    offset. *)
val translate : entry -> vaddr:Word.t -> Word.t

val flush : t -> unit
val occupancy : t -> int

(** [snapshot t log] appends the valid entries to the log's open record. *)
val snapshot : t -> Log.t -> unit

(** [drop_half t] models a faulty flush: only every other valid entry is
    invalidated, so half the translations survive. *)
val drop_half : t -> unit

(** [corrupt_bit t ~select ~bit] flips one PPN bit of one valid entry
    for fault injection ([select] picks the entry, both wrap).  Returns
    the entry's virtual page base and its new physical page base, or
    [None] when the TLB is empty. *)
val corrupt_bit : t -> select:int -> bit:int -> (Word.t * Word.t) option
