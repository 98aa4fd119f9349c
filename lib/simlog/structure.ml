type t =
  | Reg_file
  | L1i_data
  | L1d_data
  | L2_data
  | Lfb
  | Store_buffer
  | Store_queue
  | Load_queue
  | Dtlb
  | Ptw_cache
  | Ubtb
  | Ftb
  | Hpm_counters
  | Wb_buffer
  | Prefetcher

let all =
  [
    Reg_file;
    L1i_data;
    L1d_data;
    L2_data;
    Lfb;
    Store_buffer;
    Store_queue;
    Load_queue;
    Dtlb;
    Ptw_cache;
    Ubtb;
    Ftb;
    Hpm_counters;
    Wb_buffer;
    Prefetcher;
  ]

let to_code = function
  | Reg_file -> 0
  | L1i_data -> 1
  | L1d_data -> 2
  | L2_data -> 3
  | Lfb -> 4
  | Store_buffer -> 5
  | Store_queue -> 6
  | Load_queue -> 7
  | Dtlb -> 8
  | Ptw_cache -> 9
  | Ubtb -> 10
  | Ftb -> 11
  | Hpm_counters -> 12
  | Wb_buffer -> 13
  | Prefetcher -> 14

let of_code = function
  | 0 -> Reg_file
  | 1 -> L1i_data
  | 2 -> L1d_data
  | 3 -> L2_data
  | 4 -> Lfb
  | 5 -> Store_buffer
  | 6 -> Store_queue
  | 7 -> Load_queue
  | 8 -> Dtlb
  | 9 -> Ptw_cache
  | 10 -> Ubtb
  | 11 -> Ftb
  | 12 -> Hpm_counters
  | 13 -> Wb_buffer
  | 14 -> Prefetcher
  | c -> invalid_arg (Printf.sprintf "Structure.of_code %d" c)

let count = 15

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let to_string = function
  | Reg_file -> "register-file"
  | L1i_data -> "l1i-cache"
  | L1d_data -> "l1d-cache"
  | L2_data -> "l2-cache"
  | Lfb -> "line-fill-buffer"
  | Store_buffer -> "store-buffer"
  | Store_queue -> "store-queue"
  | Load_queue -> "load-queue"
  | Dtlb -> "dtlb"
  | Ptw_cache -> "ptw-cache"
  | Ubtb -> "ubtb"
  | Ftb -> "ftb"
  | Hpm_counters -> "hpm-counters"
  | Wb_buffer -> "wb-buffer"
  | Prefetcher -> "prefetcher"

let of_string s = List.find_opt (fun t -> to_string t = s) all

let netlist_hint = function
  | Reg_file -> [ "regfile" ]
  | L1i_data -> [ "icache_data" ]
  | L1d_data -> [ "dcache.data_array" ]
  | L2_data -> [ "l2" ]
  | Lfb -> [ "lfb"; "miss_queue" ]
  | Store_buffer -> [ "sbuffer" ]
  | Store_queue -> [ "store_queue" ]
  | Load_queue -> [ "load_queue" ]
  | Dtlb -> [ "dtlb" ]
  | Ptw_cache -> [ "ptw_cache" ]
  | Ubtb -> [ "ubtb"; "btb" ]
  | Ftb -> [ "ftb" ]
  | Hpm_counters -> [ "hpm_counters" ]
  | Wb_buffer -> [ "wb_buffer"; "wb_queue" ]
  | Prefetcher -> [ "prefetcher" ]
