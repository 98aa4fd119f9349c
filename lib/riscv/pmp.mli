(** RISC-V Physical Memory Protection (PMP).

    PMP is the isolation primitive Keystone builds security domains on: a
    small table of configuration/address register pairs, each describing a
    physical region and the read/write/execute permissions that apply to
    accesses from modes less privileged than Machine (and to Machine-mode
    accesses when the entry is locked).

    The checker implements the priority and matching rules of the RISC-V
    privileged specification: entries are searched in ascending index
    order, the first entry matching {e any} byte of the access wins, and
    an access that only partially matches an entry fails.  When no entry
    matches, Machine-mode accesses succeed and all others fail (provided
    at least one entry is active, which is always the case once the
    security monitor has installed its background entry). *)

type address_mode =
  | Off  (** Entry disabled. *)
  | Tor  (** Top-of-range: region is [prev_addr << 2, addr << 2). *)
  | Na4  (** Naturally aligned four-byte region. *)
  | Napot  (** Naturally aligned power-of-two region, eight bytes or wider. *)

type permission = { read : bool; write : bool; execute : bool }

val no_access : permission
val read_only : permission
val read_write : permission
val full_access : permission

type entry = {
  mode : address_mode;
  perm : permission;
  locked : bool;  (** Locked entries also constrain Machine mode. *)
  address : Word.t;  (** Raw [pmpaddr] register value (address >> 2). *)
}

val disabled_entry : entry

(** A PMP unit: a fixed-size array of entries (16 in this model, matching
    both evaluated cores). *)
type t

val entry_count : int
val create : unit -> t
val get : t -> int -> entry
val set : t -> int -> entry -> unit

(** [clear t] turns every entry [Off]. *)
val clear : t -> unit

(** [copy t] is an independent copy (entries are immutable). *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src]'s entries. *)
val restore_into : t -> into:t -> unit

(** [napot_entry ~base ~size ~perm ~locked] builds a NAPOT entry covering
    [size] bytes starting at [base].  [size] must be a power of two of at
    least 8 and [base] must be [size]-aligned. *)
val napot_entry : base:Word.t -> size:int -> perm:permission -> locked:bool -> entry

(** [napot_range e] decodes the byte range [(base, size)] covered by a
    NAPOT entry. *)
val napot_range : entry -> Word.t * int64

type access_kind = Read | Write | Execute

type check_result =
  | Allowed
  | Denied of { entry_index : int option }
      (** [entry_index] is the matching entry, or [None] when the denial
          comes from the no-match default for non-Machine modes. *)

(** [check t ~priv ~kind ~addr ~size] applies the PMP rules to an access
    of [size] bytes at physical address [addr]. *)
val check :
  t -> priv:Priv.t -> kind:access_kind -> addr:Word.t -> size:int -> check_result

(** [allows t ~priv ~kind ~addr ~size] is [check ... = Allowed]. *)
val allows : t -> priv:Priv.t -> kind:access_kind -> addr:Word.t -> size:int -> bool

(** [allows_region t ~priv ~kind ~addr ~size] is a sufficient condition
    for [allows] to hold at every aligned 8-byte word of
    [[addr, addr + size)]: the lowest-index entry overlapping any byte of
    the region contains all of it and grants the access, or no entry
    overlaps and the default grants it.  [false] means "not shown", not
    "denied": a region straddling an entry boundary, empty, or wrapping
    the address space is refused. *)
val allows_region :
  t -> priv:Priv.t -> kind:access_kind -> addr:Word.t -> size:int -> bool
