let page_size = 4096
let levels = 3

type pte_perm = { read : bool; write : bool; execute : bool; user : bool }

type pte =
  | Invalid
  | Pointer of Word.t
  | Leaf of { paddr : Word.t; perm : pte_perm }

let user_rw = { read = true; write = true; execute = false; user = true }
let supervisor_rw = { read = true; write = true; execute = false; user = false }

let vpn vaddr ~level =
  assert (level >= 0 && level < levels);
  Int64.to_int (Word.extract vaddr ~pos:(12 + (9 * level)) ~len:9)

let pte_addr ~table_base ~vaddr ~level =
  Int64.add table_base (Int64.of_int (vpn vaddr ~level * 8))

(* PTE bits: V=0 R=1 W=2 X=3 U=4 G=5 A=6 D=7, PPN at 10.. *)
let bit b v = if v then Int64.shift_left 1L b else 0L

let encode_pte = function
  | Invalid -> 0L
  | Pointer base ->
    Int64.logor 1L (Int64.shift_left (Int64.shift_right_logical base 12) 10)
  | Leaf { paddr; perm } ->
    List.fold_left Int64.logor
      (Int64.shift_left (Int64.shift_right_logical paddr 12) 10)
      [
        bit 0 true;
        bit 1 perm.read;
        bit 2 perm.write;
        bit 3 perm.execute;
        bit 4 perm.user;
        bit 6 true (* A *);
        bit 7 perm.write (* D *);
      ]

let decode_pte w =
  let flag b = Word.extract w ~pos:b ~len:1 = 1L in
  if not (flag 0) then Invalid
  else
    let base = Int64.shift_left (Word.extract w ~pos:10 ~len:44) 12 in
    if flag 1 || flag 3 then
      Leaf { paddr = base; perm = { read = flag 1; write = flag 2; execute = flag 3; user = flag 4 } }
    else Pointer base

let satp_of_root root =
  Int64.logor
    (Int64.shift_left 8L 60 (* MODE = sv39 *))
    (Int64.shift_right_logical root 12)

let root_of_satp satp =
  if Word.extract satp ~pos:60 ~len:4 = 8L then
    Some (Int64.shift_left (Word.extract satp ~pos:0 ~len:44) 12)
  else None

type builder = {
  mem : Memory.t;
  root : Word.t;
  mutable next_table : Word.t;
}

let create_builder mem ~table_region () =
  assert (Word.is_aligned table_region ~alignment:page_size);
  {
    mem;
    root = table_region;
    next_table = Int64.add table_region (Int64.of_int page_size);
  }

let root b = b.root

let alloc_table b =
  let t = b.next_table in
  b.next_table <- Int64.add t (Int64.of_int page_size);
  t

let map b ~vaddr ~paddr ~perm =
  assert (Word.is_aligned vaddr ~alignment:page_size);
  assert (Word.is_aligned paddr ~alignment:page_size);
  let rec descend table_base level =
    let addr = pte_addr ~table_base ~vaddr ~level in
    if level = 0 then
      Memory.write b.mem ~addr ~size:8 (encode_pte (Leaf { paddr; perm }))
    else
      let next =
        match decode_pte (Memory.read b.mem ~addr ~size:8) with
        | Pointer base -> base
        | Invalid ->
          let base = alloc_table b in
          Memory.write b.mem ~addr ~size:8 (encode_pte (Pointer base));
          base
        | Leaf _ -> invalid_arg "Page_table.map: superpage in the way"
      in
      descend next (level - 1)
  in
  descend b.root (levels - 1)

let map_range b ~vaddr ~paddr ~size ~perm =
  let pages = Int64.to_int (Int64.div (Int64.add size (Int64.of_int (page_size - 1)))
                              (Int64.of_int page_size)) in
  for i = 0 to pages - 1 do
    let off = Int64.of_int (i * page_size) in
    map b ~vaddr:(Int64.add vaddr off) ~paddr:(Int64.add paddr off) ~perm
  done

type walk_step = { level : int; pte_address : Word.t; pte : pte }

type walk_result =
  | Translated of { paddr : Word.t; perm : pte_perm; steps : walk_step list }
  | Fault of { steps : walk_step list }

let walk mem ~root ~vaddr =
  let rec go table_base level steps =
    let pte_address = pte_addr ~table_base ~vaddr ~level in
    let pte = decode_pte (Memory.read mem ~addr:pte_address ~size:8) in
    let steps = { level; pte_address; pte } :: steps in
    match pte with
    | Invalid -> Fault { steps = List.rev steps }
    | Leaf { paddr; perm } ->
      let offset = Word.extract vaddr ~pos:0 ~len:12 in
      Translated { paddr = Int64.logor paddr offset; perm; steps = List.rev steps }
    | Pointer base ->
      if level = 0 then Fault { steps = List.rev steps }
      else go base (level - 1) steps
  in
  go root (levels - 1) []
