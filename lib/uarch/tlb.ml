open Import

type entry = { vpn : Word.t; ppn : Word.t; perm : Page_table.pte_perm }

type slot = { mutable valid : bool; mutable entry : entry }

type t = { slots : slot array; mutable next : int }

let dummy_entry =
  {
    vpn = 0L;
    ppn = 0L;
    perm = { Page_table.read = false; write = false; execute = false; user = false };
  }

let create ~entries =
  { slots = Array.init entries (fun _ -> { valid = false; entry = dummy_entry }); next = 0 }

let copy t =
  {
    slots = Array.map (fun s -> { valid = s.valid; entry = s.entry }) t.slots;
    next = t.next;
  }

let restore_into src ~into =
  if Array.length src.slots <> Array.length into.slots then
    invalid_arg "Tlb.restore_into: geometry mismatch";
  Array.iteri
    (fun i s ->
      let d = into.slots.(i) in
      d.valid <- s.valid;
      (* Entries are immutable records, so sharing them is safe. *)
      d.entry <- s.entry)
    src.slots;
  into.next <- src.next

let vpn_of vaddr = Int64.shift_right_logical vaddr 12

let lookup t ~vaddr =
  let vpn = vpn_of vaddr in
  let found = ref None in
  Array.iter
    (fun s -> if s.valid && Int64.equal s.entry.vpn vpn then found := Some s.entry)
    t.slots;
  !found

let insert t ~vaddr ~paddr ~perm =
  let entry = { vpn = vpn_of vaddr; ppn = Int64.shift_right_logical paddr 12; perm } in
  (* Reuse an existing slot for the same page, else a free one, else RR. *)
  let target =
    let exception Found of slot in
    try
      Array.iter
        (fun s -> if s.valid && Int64.equal s.entry.vpn entry.vpn then raise (Found s))
        t.slots;
      Array.iter (fun s -> if not s.valid then raise (Found s)) t.slots;
      let s = t.slots.(t.next) in
      t.next <- (t.next + 1) mod Array.length t.slots;
      s
    with Found s -> s
  in
  target.valid <- true;
  target.entry <- entry

let translate entry ~vaddr =
  Int64.logor (Int64.shift_left entry.ppn 12) (Word.extract vaddr ~pos:0 ~len:12)

let flush t = Array.iter (fun s -> s.valid <- false) t.slots
let occupancy t = Array.fold_left (fun n s -> if s.valid then n + 1 else n) 0 t.slots

let drop_half t =
  let i = ref 0 in
  Array.iter
    (fun s ->
      if s.valid then begin
        if !i mod 2 = 0 then s.valid <- false;
        incr i
      end)
    t.slots

let corrupt_bit t ~select ~bit =
  let valid = List.filter (fun s -> s.valid) (Array.to_list t.slots) in
  match valid with
  | [] -> None
  | slots ->
    let s = List.nth slots (select mod List.length slots) in
    (* Flip within the PPN's low bits so the mistranslation stays inside
       the modelled physical address space. *)
    let ppn = Int64.logxor s.entry.ppn (Int64.shift_left 1L (bit mod 28)) in
    s.entry <- { s.entry with ppn };
    Some (Int64.shift_left s.entry.vpn 12, Int64.shift_left ppn 12)

let snapshot t log =
  Array.iteri
    (fun i s ->
      if s.valid then
        Log.add_addr_entry log ~slot:i
          ~addr:(Int64.shift_left s.entry.vpn 12)
          ~note:"vpn->ppn"
          (Int64.shift_left s.entry.ppn 12))
    t.slots
