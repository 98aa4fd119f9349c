open Import

type entry = {
  addr : Word.t;
  size : int;
  value : Word.t;
  ctx_note : string;
  origin : Log.origin;
}
type t = { capacity : int; mutable items : entry list (* youngest first *) }

let create ~entries = { capacity = entries; items = [] }

(* Entries are immutable records, so sharing the list is a deep copy. *)
let copy t = { capacity = t.capacity; items = t.items }

let restore_into src ~into =
  if src.capacity <> into.capacity then
    invalid_arg "Store_buffer.restore_into: capacity mismatch";
  into.items <- src.items

let is_full t = List.length t.items >= t.capacity

let push t entry =
  assert (not (is_full t));
  t.items <- entry :: t.items

let covers store ~addr ~size =
  let store_end = Int64.add store.addr (Int64.of_int store.size) in
  let load_end = Int64.add addr (Int64.of_int size) in
  Int64.unsigned_compare store.addr addr <= 0
  && Int64.unsigned_compare load_end store_end <= 0

let overlaps store ~addr ~size =
  let store_end = Int64.add store.addr (Int64.of_int store.size) in
  let load_end = Int64.add addr (Int64.of_int size) in
  Int64.unsigned_compare store.addr load_end < 0
  && Int64.unsigned_compare addr store_end < 0

type forward_result = Forwarded of Word.t | Partial_conflict | No_match

(* The youngest overlapping store decides: a full cover forwards its
   bytes; a partial overlap cannot be merged with older entries in
   flight, so the LSU must drain before the load can complete. *)
let forward t ~addr ~size =
  match List.find_opt (fun s -> overlaps s ~addr ~size) t.items with
  | None -> No_match
  | Some s when covers s ~addr ~size ->
    let shift = Int64.to_int (Int64.sub addr s.addr) * 8 in
    let bits = size * 8 in
    Forwarded (Word.extract s.value ~pos:shift ~len:(min bits (64 - shift)))
  | Some _ -> Partial_conflict

let drain t =
  let oldest_first = List.rev t.items in
  t.items <- [];
  oldest_first

let take_oldest t count =
  let oldest_first = List.rev t.items in
  let rec split n = function
    | e :: rest when n > 0 ->
      let taken, kept = split (n - 1) rest in
      (e :: taken, kept)
    | rest -> ([], rest)
  in
  let taken, kept = split count oldest_first in
  t.items <- List.rev kept;
  taken

let corrupt_bit t ~select ~bit =
  match t.items with
  | [] -> None
  | items ->
    let index = select mod List.length items in
    let pos = bit mod 64 in
    let items =
      List.mapi
        (fun i e ->
          if i = index then { e with value = Int64.logxor e.value (Int64.shift_left 1L pos) }
          else e)
        items
    in
    t.items <- items;
    let e = List.nth items index in
    Some (e.addr, e.value)

let clear t = t.items <- []
let occupancy t = List.length t.items
let entries t = List.rev t.items
let holds_value t v = List.exists (fun e -> Int64.equal e.value v) t.items

let snapshot t log =
  List.iteri
    (fun i e -> Log.add_addr_entry log ~slot:i ~addr:e.addr ~note:e.ctx_note e.value)
    (entries t)
