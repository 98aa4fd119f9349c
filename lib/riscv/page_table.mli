(** Sv39 page tables.

    The host supervisor owns its page tables in ordinary memory; the
    hardware page-table walker traverses them on a TLB miss.  Because the
    malicious OS controls [satp], it can point the root page table into
    enclave memory — the D2 leakage case of the paper — so the walker in
    {!Uarch} performs each of the accesses enumerated here through the
    real memory hierarchy rather than trusting this module's pure
    reference walk.

    Virtual addresses are 39 bits: three 9-bit VPN fields and a 12-bit
    page offset.  Only 4-KiB leaf pages are modelled. *)

val page_size : int
val levels : int

type pte_perm = { read : bool; write : bool; execute : bool; user : bool }

type pte =
  | Invalid
  | Pointer of Word.t  (** Next-level table physical base address. *)
  | Leaf of { paddr : Word.t; perm : pte_perm }

(** [vpn vaddr ~level] is the 9-bit VPN field for [level] (2 is the root
    level). *)
val vpn : Word.t -> level:int -> int

(** [pte_addr ~table_base ~vaddr ~level] is the physical address of the
    PTE consulted at [level] of the walk when the current table lives at
    [table_base]. *)
val pte_addr : table_base:Word.t -> vaddr:Word.t -> level:int -> Word.t

val encode_pte : pte -> Word.t
val decode_pte : Word.t -> pte

(** [satp_of_root root] encodes a [satp] value with MODE=sv39 and the
    given root table address; [root_of_satp] decodes it.  A [satp] of
    zero means translation is off (bare mode). *)
val satp_of_root : Word.t -> Word.t

val root_of_satp : Word.t -> Word.t option

(** Page-table construction: a builder owns an allocator for page-table
    pages inside a designated physical region. *)
type builder

val create_builder : Memory.t -> table_region:Word.t -> unit -> builder

(** Physical address of the root table. *)
val root : builder -> Word.t

(** [map builder ~vaddr ~paddr ~perm] installs a 4-KiB mapping,
    allocating intermediate tables as needed.  Both addresses must be
    page-aligned. *)
val map : builder -> vaddr:Word.t -> paddr:Word.t -> perm:pte_perm -> unit

(** [map_range builder ~vaddr ~paddr ~size ~perm] maps a contiguous
    region page by page. *)
val map_range :
  builder -> vaddr:Word.t -> paddr:Word.t -> size:int64 -> perm:pte_perm -> unit

type walk_step = { level : int; pte_address : Word.t; pte : pte }

type walk_result =
  | Translated of { paddr : Word.t; perm : pte_perm; steps : walk_step list }
  | Fault of { steps : walk_step list }

(** [walk mem ~root ~vaddr] is the pure reference walk: tests check the
    tables {!map} builds against it.  The hardware walker in {!Uarch}
    does not call it. *)
val walk : Memory.t -> root:Word.t -> vaddr:Word.t -> walk_result

val user_rw : pte_perm
val supervisor_rw : pte_perm
