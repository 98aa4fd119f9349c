open Import

type cell = {
  mutable in_use : bool;
  mutable value : Word.t;
  mutable note : string;
}

type t = { cells : cell array; mutable next : int }

let create ~regs =
  { cells = Array.init regs (fun _ -> { in_use = false; value = 0L; note = "" }); next = 0 }

let copy t =
  {
    cells = Array.map (fun c -> { in_use = c.in_use; value = c.value; note = c.note }) t.cells;
    next = t.next;
  }

let restore_into src ~into =
  if Array.length src.cells <> Array.length into.cells then
    invalid_arg "Regfile.restore_into: size mismatch";
  Array.iteri
    (fun i c ->
      let d = into.cells.(i) in
      d.in_use <- c.in_use;
      d.value <- c.value;
      d.note <- c.note)
    src.cells;
  into.next <- src.next

let writeback t ~value ~ctx ~transient =
  let index = t.next in
  t.next <- (t.next + 1) mod Array.length t.cells;
  let c = t.cells.(index) in
  c.in_use <- true;
  c.value <- value;
  let name = Exec_context.to_string ctx in
  c.note <- (if transient then name ^ " transient" else name);
  index

let holds_value t v =
  Array.exists (fun c -> c.in_use && Int64.equal c.value v) t.cells

let corrupt_bit t ~select ~bit =
  let used = ref [] in
  Array.iteri (fun i c -> if c.in_use then used := (i, c) :: !used) t.cells;
  match List.rev !used with
  | [] -> None
  | cells ->
    let slot, c = List.nth cells (select mod List.length cells) in
    c.value <- Int64.logxor c.value (Int64.shift_left 1L (bit mod 64));
    Some (slot, c.value)

let clear t =
  Array.iter
    (fun c ->
      c.in_use <- false;
      c.value <- 0L;
      c.note <- "")
    t.cells

let snapshot t log =
  Array.iteri
    (fun i c -> if c.in_use then Log.add_entry log ~slot:i ~note:c.note c.value)
    t.cells
