open Import

type event =
  | L1d_access
  | L1d_miss
  | Dtlb_miss
  | Branch
  | Branch_mispredict
  | Store_to_load_forward
  | Exception_event
  | Ptw_walk_event

let all_events =
  [
    L1d_access;
    L1d_miss;
    Dtlb_miss;
    Branch;
    Branch_mispredict;
    Store_to_load_forward;
    Exception_event;
    Ptw_walk_event;
  ]

let to_string = function
  | L1d_access -> "l1d-access"
  | L1d_miss -> "l1d-miss"
  | Dtlb_miss -> "dtlb-miss"
  | Branch -> "branch"
  | Branch_mispredict -> "branch-mispredict"
  | Store_to_load_forward -> "store-to-load-forward"
  | Exception_event -> "exception"
  | Ptw_walk_event -> "ptw-walk"

(* mhpmcounter3 is the first event counter; cycle=0 and instret=2 are
   handled directly by the machine. *)
let counter_index = function
  | L1d_access -> 3
  | L1d_miss -> 4
  | Dtlb_miss -> 5
  | Branch -> 6
  | Branch_mispredict -> 7
  | Store_to_load_forward -> 8
  | Exception_event -> 9
  | Ptw_walk_event -> 10

let bump csr e = Csr.bump_counter csr (counter_index e) ~by:1
let read csr e = Csr.raw_read csr (Csr.Mhpmcounter (counter_index e))

(* The modelled counters' slots and names, fixed once: a residue
   snapshot copies eight-byte words and formats nothing. *)
let snapshot_slots = Array.of_list Csr.modelled_counters

let snapshot_notes =
  Array.map
    (fun n ->
      Csr.name (match n with 0 -> Csr.Mcycle | 2 -> Csr.Minstret | n -> Csr.Mhpmcounter n))
    snapshot_slots

let snapshot csr log =
  let file = Csr.counter_file csr in
  for i = 0 to Array.length snapshot_slots - 1 do
    let n = snapshot_slots.(i) in
    Log.add_entry_of_bytes log ~slot:n ~note:snapshot_notes.(i) file (8 * n)
  done
