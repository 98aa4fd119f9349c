open! Import

type t =
  | Bit_flip of Structure.t
  | Flush_drop of Structure.t
  | Flush_partial of Structure.t
  | Pmp_stuck_grant
  | Snapshot_delay
  | Hpc_corrupt

let bit_flip_targets =
  [
    Structure.Reg_file;
    Structure.L1d_data;
    Structure.L2_data;
    Structure.Lfb;
    Structure.Store_buffer;
    Structure.Dtlb;
  ]

let flush_targets =
  [
    Structure.L1d_data;
    Structure.Lfb;
    Structure.Store_buffer;
    Structure.Dtlb;
    Structure.Ubtb;
    Structure.Hpm_counters;
  ]

let vocabulary =
  List.map (fun s -> Bit_flip s) bit_flip_targets
  @ List.map (fun s -> Flush_drop s) flush_targets
  @ List.map (fun s -> Flush_partial s) flush_targets
  @ [ Pmp_stuck_grant; Snapshot_delay; Hpc_corrupt ]

let structure_of = function
  | Bit_flip s | Flush_drop s | Flush_partial s -> Some s
  | Hpc_corrupt -> Some Structure.Hpm_counters
  | Pmp_stuck_grant | Snapshot_delay -> None

let windowed = function
  | Flush_drop _ | Flush_partial _ | Pmp_stuck_grant -> true
  | Bit_flip _ | Snapshot_delay | Hpc_corrupt -> false

(* Exhaustive on purpose: a new model's author must say whether it can
   make the run differ from the clean run before it logs a
   [Fault_injected] record. *)
let deferred = function
  | Snapshot_delay -> true
  | Bit_flip _ | Flush_drop _ | Flush_partial _ | Pmp_stuck_grant | Hpc_corrupt -> false

let to_string = function
  | Bit_flip s -> "bit-flip:" ^ Structure.to_string s
  | Flush_drop s -> "flush-drop:" ^ Structure.to_string s
  | Flush_partial s -> "flush-partial:" ^ Structure.to_string s
  | Pmp_stuck_grant -> "pmp-stuck-grant"
  | Snapshot_delay -> "snapshot-delay"
  | Hpc_corrupt -> "hpc-corrupt"

let of_string s =
  List.find_opt (fun m -> to_string m = s) vocabulary

let equal (a : t) b = a = b
