type t =
  | Flush_l1d
  | Flush_store_buffer
  | Clear_illegal_data_returns
  | Flush_lfb
  | Flush_bpu_hpc
  | Flush_everything
  | Tag_bpu_hpc

let all =
  [
    Flush_l1d;
    Flush_store_buffer;
    Clear_illegal_data_returns;
    Flush_lfb;
    Flush_bpu_hpc;
    Flush_everything;
  ]

let extensions = [ Tag_bpu_hpc ]

let equal (a : t) b = a = b

let to_string = function
  | Flush_l1d -> "flush-l1d"
  | Flush_store_buffer -> "flush-store-buffer"
  | Clear_illegal_data_returns -> "clear-illegal-data-returns"
  | Flush_lfb -> "flush-lfb"
  | Flush_bpu_hpc -> "flush-bpu-hpc"
  | Flush_everything -> "flush-everything"
  | Tag_bpu_hpc -> "tag-bpu-hpc"

(* The primitive flushes implied by a mitigation: [Flush_everything]
   implies every flush, but not [Clear_illegal_data_returns], which is a
   datapath change rather than a flush. *)
let expands = function
  | Flush_everything ->
    [ Flush_everything; Flush_l1d; Flush_store_buffer; Flush_lfb; Flush_bpu_hpc ]
  | m -> [ m ]

let active mitigations m =
  List.exists (fun set -> List.exists (equal m) (expands set)) mitigations
