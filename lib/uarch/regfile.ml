open Import

(* Register [i]'s value is the 64-bit word at byte [8i] of [values]
   (native byte order) and its in-use flag byte [i] of [in_use], so a
   write-back boxes nothing and a copy is three flat blits. *)
type t = {
  values : Bytes.t;
  in_use : Bytes.t;
  notes : string array;
  mutable next : int;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create ~regs =
  {
    values = Bytes.make (8 * regs) '\000';
    in_use = Bytes.make regs '\000';
    notes = Array.make regs "";
    next = 0;
  }

let regs t = Array.length t.notes
let used t i = Bytes.get_uint8 t.in_use i <> 0
let value t i = get64 t.values (8 * i)

let copy t =
  {
    values = Bytes.copy t.values;
    in_use = Bytes.copy t.in_use;
    notes = Array.copy t.notes;
    next = t.next;
  }

let restore_into src ~into =
  if regs src <> regs into then invalid_arg "Regfile.restore_into: size mismatch";
  Bytes.blit src.values 0 into.values 0 (Bytes.length src.values);
  Bytes.blit src.in_use 0 into.in_use 0 (regs src);
  Array.blit src.notes 0 into.notes 0 (regs src);
  into.next <- src.next

let writeback t ~value ~ctx ~transient =
  let index = t.next in
  t.next <- (index + 1) mod regs t;
  Bytes.set_uint8 t.in_use index 1;
  set64 t.values (8 * index) value;
  let name = Exec_context.to_string ctx in
  t.notes.(index) <- (if transient then name ^ " transient" else name);
  index

let holds_value t v =
  let rec from i = i < regs t && ((used t i && Int64.equal (value t i) v) || from (i + 1)) in
  from 0

let corrupt_bit t ~select ~bit =
  match List.filter (used t) (List.init (regs t) Fun.id) with
  | [] -> None
  | in_use ->
    let slot = List.nth in_use (select mod List.length in_use) in
    let v = Int64.logxor (value t slot) (Int64.shift_left 1L (bit mod 64)) in
    set64 t.values (8 * slot) v;
    Some (slot, v)

let clear t =
  Bytes.fill t.values 0 (Bytes.length t.values) '\000';
  Bytes.fill t.in_use 0 (regs t) '\000';
  Array.fill t.notes 0 (regs t) ""

let snapshot t log =
  for i = 0 to regs t - 1 do
    if used t i then Log.add_entry_of_bytes log ~slot:i ~note:t.notes.(i) t.values (8 * i)
  done
