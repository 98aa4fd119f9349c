open Import

type slot = {
  mutable valid : bool;
  mutable addr : Word.t;
  mutable has_data : bool;  (* data visible, possibly stale *)
  data : Word.t array;
}

type t = { slots : slot array; retains_stale : bool; mutable next : int }

let line_words = Memory.line_bytes / 8

let create ~entries ~retains_stale =
  {
    slots =
      Array.init entries (fun _ ->
          { valid = false; addr = 0L; has_data = false; data = Array.make line_words 0L });
    retains_stale;
    next = 0;
  }

let copy t =
  {
    slots =
      Array.map
        (fun s ->
          { valid = s.valid; addr = s.addr; has_data = s.has_data; data = Array.copy s.data })
        t.slots;
    retains_stale = t.retains_stale;
    next = t.next;
  }

let restore_into src ~into =
  if
    Array.length src.slots <> Array.length into.slots
    || src.retains_stale <> into.retains_stale
  then invalid_arg "Lfb.restore_into: geometry mismatch";
  Array.iteri
    (fun i s ->
      let d = into.slots.(i) in
      d.valid <- s.valid;
      d.addr <- s.addr;
      d.has_data <- s.has_data;
      Array.blit s.data 0 d.data 0 line_words)
    src.slots;
  into.next <- src.next

let fill t ~addr ~data =
  assert (Array.length data = line_words);
  let slot_index = t.next in
  t.next <- (t.next + 1) mod Array.length t.slots;
  let s = t.slots.(slot_index) in
  s.valid <- true;
  s.addr <- Word.align_down addr ~alignment:Memory.line_bytes;
  s.has_data <- true;
  Array.blit data 0 s.data 0 line_words;
  slot_index

let complete t ~slot =
  let s = t.slots.(slot) in
  s.valid <- false;
  if not t.retains_stale then begin
    s.has_data <- false;
    Array.fill s.data 0 line_words 0L
  end

let flush t =
  Array.iter
    (fun s ->
      s.valid <- false;
      s.has_data <- false;
      Array.fill s.data 0 line_words 0L)
    t.slots

let flush_partial t =
  Array.iteri
    (fun i s ->
      if i mod 2 = 0 then begin
        s.valid <- false;
        s.has_data <- false;
        Array.fill s.data 0 line_words 0L
      end)
    t.slots

let occupied t = Array.fold_left (fun n s -> if s.valid then n + 1 else n) 0 t.slots

let corrupt_bit t ~select ~bit =
  let holding = List.filter (fun s -> s.has_data) (Array.to_list t.slots) in
  match holding with
  | [] -> None
  | slots ->
    let n = List.length slots in
    let s = List.nth slots (select mod n) in
    let word = select / n mod line_words in
    let pos = bit mod 64 in
    s.data.(word) <- Int64.logxor s.data.(word) (Int64.shift_left 1L pos);
    Some (Int64.add s.addr (Int64.of_int (word * 8)), s.data.(word))

let holds_value t v =
  Array.exists
    (fun s -> s.has_data && Array.exists (Int64.equal v) s.data)
    t.slots

let snapshot t log =
  Array.iteri
    (fun i s -> if s.has_data then Log.add_line log ~slot:i ~addr:s.addr s.data)
    t.slots
