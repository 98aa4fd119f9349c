open! Import

type id = D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | M1 | M2

let all = [ D1; D2; D3; D4; D5; D6; D7; D8; M1; M2 ]

let index = function
  | D1 -> 0
  | D2 -> 1
  | D3 -> 2
  | D4 -> 3
  | D5 -> 4
  | D6 -> 5
  | D7 -> 6
  | D8 -> 7
  | M1 -> 8
  | M2 -> 9

let compare a b = Int.compare (index a) (index b)
let equal a b = index a = index b

let to_string = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | D7 -> "D7"
  | D8 -> "D8"
  | M1 -> "M1"
  | M2 -> "M2"

let pp fmt t = Format.pp_print_string fmt (to_string t)

type principle = P1 | P2

let principle = function
  | D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 -> P1
  | M1 | M2 -> P2

let description = function
  | D1 -> "Leaking enclave data via L1D prefetcher abuse"
  | D2 -> "Leaking enclave/SM data through page table walks"
  | D3 -> "Leaking LFB residual data after enclave destroy"
  | D4 -> "Leaking enclave data/code to host user/supervisor"
  | D5 -> "Leaking Keystone SM data/code to host user/supervisor"
  | D6 -> "Leaking enclave data/code to another enclave"
  | D7 -> "Leaking host user/supervisor data/code to enclave"
  | D8 -> "Leaking enclave data/code through store buffer"
  | M1 -> "Revealing enclave control-flow/data access patterns via performance counters"
  | M2 -> "Revealing enclave control-flow via conflicts on branch prediction units"

let expected id (core : Config.core_kind) =
  match (id, core) with
  | (D1 | D2 | D3), Config.Boom -> true
  | (D1 | D2 | D3), Config.Xiangshan -> false
  | (D4 | D5 | D6 | D7), (Config.Boom | Config.Xiangshan) -> true
  | D8, Config.Boom -> false
  | D8, Config.Xiangshan -> true
  | (M1 | M2), (Config.Boom | Config.Xiangshan) -> true
