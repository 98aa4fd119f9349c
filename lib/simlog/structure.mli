(** Identifiers for logged microarchitectural structures.

    One constructor per storage element the verification plan wants
    visibility into.  The names line up with the storage elements the
    netlist memory pass discovers (see {!Netlist.Designs}); the mapping is
    established in the plan. *)

type t =
  | Reg_file  (** Physical integer register file. *)
  | L1i_data  (** Instruction cache: holds code, a P1 target too. *)
  | L1d_data
  | L2_data
  | Lfb  (** Line-fill buffer (BOOM) / miss queue (XiangShan). *)
  | Store_buffer  (** Committed-store buffer (XiangShan sbuffer). *)
  | Store_queue
  | Load_queue
  | Dtlb
  | Ptw_cache
  | Ubtb
  | Ftb
  | Hpm_counters
  | Wb_buffer  (** Write-back buffer between L1D and L2. *)
  | Prefetcher  (** Next-line prefetcher request register. *)

val all : t list

(** [to_code s] is [s]'s position in {!all}: the compact code the
    simulation log and the wave stream store. *)
val to_code : t -> int

(** [of_code c] inverts {!to_code}; raises [Invalid_argument] outside
    [0 .. count - 1]. *)
val of_code : int -> t

(** Number of structures, [List.length all]. *)
val count : int
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string

(** [of_string s] inverts [to_string]. *)
val of_string : string -> t option

(** [netlist_hint t] is the substring to look for in netlist storage
    element paths when cross-referencing the plan (e.g. [Lfb] matches
    both BOOM's ["lfb"] and XiangShan's ["miss_queue"]). *)
val netlist_hint : t -> string list
