open Import

type entry = {
  tag : Word.t;
  target : Word.t;
  taken : bool;
  owner : Exec_context.t;
}

type slot = { mutable valid : bool; mutable entry : entry }

type t = {
  sets : int;
  ways : int;
  tag_bits : int;
  index_bits : int;
  tagged_by_owner : bool;
  slots : slot array array;
  next_way : int array;
}

let dummy = { tag = 0L; target = 0L; taken = false; owner = Exec_context.Monitor }

let create ?(tagged_by_owner = false) ~entries ~tag_bits ~ways () =
  assert (entries mod ways = 0);
  let sets = entries / ways in
  assert (sets > 0 && sets land (sets - 1) = 0);
  let index_bits =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 sets 0
  in
  {
    sets;
    ways;
    tag_bits;
    index_bits;
    tagged_by_owner;
    slots = Array.init sets (fun _ -> Array.init ways (fun _ -> { valid = false; entry = dummy }));
    next_way = Array.make sets 0;
  }

let tagged_by_owner t = t.tagged_by_owner

(* Live-slots-only snapshot form; see {!Cache.capture} for the
   rationale.  Entries are immutable, so a capture shares them. *)
type capture = {
  cap_sets : int;
  cap_ways : int;
  cap_tag_bits : int;
  cap_tagged_by_owner : bool;
  cap_slots : (int * int * entry) array;  (* set, way, entry *)
  cap_next_way : int array;
}

let capture t =
  let acc = ref [] in
  for si = t.sets - 1 downto 0 do
    let set = t.slots.(si) in
    for wi = t.ways - 1 downto 0 do
      if set.(wi).valid then acc := (si, wi, set.(wi).entry) :: !acc
    done
  done;
  {
    cap_sets = t.sets;
    cap_ways = t.ways;
    cap_tag_bits = t.tag_bits;
    cap_tagged_by_owner = t.tagged_by_owner;
    cap_slots = Array.of_list !acc;
    cap_next_way = Array.copy t.next_way;
  }

let restore_capture cap ~into =
  if
    cap.cap_sets <> into.sets || cap.cap_ways <> into.ways
    || cap.cap_tag_bits <> into.tag_bits
    || cap.cap_tagged_by_owner <> into.tagged_by_owner
  then invalid_arg "Btb.restore_capture: geometry mismatch";
  Array.iter (fun set -> Array.iter (fun s -> s.valid <- false) set) into.slots;
  Array.iter
    (fun (si, wi, entry) ->
      let s = into.slots.(si).(wi) in
      s.valid <- true;
      s.entry <- entry)
    cap.cap_slots;
  Array.blit cap.cap_next_way 0 into.next_way 0 cap.cap_sets

(* Instructions are 4-byte aligned in this model; bit 1 upward indexes. *)
let index_of t ~pc = Int64.to_int (Word.extract pc ~pos:1 ~len:t.index_bits)

let tag_of t ~pc = Word.extract pc ~pos:(1 + t.index_bits) ~len:t.tag_bits

let lookup t ~pc =
  let set = t.slots.(index_of t ~pc) in
  let tag = tag_of t ~pc in
  let found = ref None in
  Array.iter
    (fun s -> if s.valid && Int64.equal s.entry.tag tag then found := Some s.entry)
    set;
  !found

let predict t ~pc ~ctx =
  match lookup t ~pc with
  | Some entry when t.tagged_by_owner && not (Exec_context.equal entry.owner ctx) ->
    None
  | hit -> hit

let update t ~pc ~target ~taken ~owner =
  let si = index_of t ~pc in
  let set = t.slots.(si) in
  let tag = tag_of t ~pc in
  let slot =
    let exception Found of slot in
    try
      Array.iter (fun s -> if s.valid && Int64.equal s.entry.tag tag then raise (Found s)) set;
      Array.iter (fun s -> if not s.valid then raise (Found s)) set;
      let s = set.(t.next_way.(si)) in
      t.next_way.(si) <- (t.next_way.(si) + 1) mod t.ways;
      s
    with Found s -> s
  in
  let entry = { tag; target; taken; owner } in
  slot.valid <- true;
  slot.entry <- entry;
  (si, entry)

let aliases t ~pc1 ~pc2 =
  index_of t ~pc:pc1 = index_of t ~pc:pc2
  && Int64.equal (tag_of t ~pc:pc1) (tag_of t ~pc:pc2)

let residue t ~f =
  let acc = ref [] in
  Array.iteri
    (fun si set ->
      Array.iter (fun s -> if s.valid && f s.entry.owner then acc := (si, s.entry) :: !acc) set)
    t.slots;
  List.rev !acc

let flush t = Array.iter (fun set -> Array.iter (fun s -> s.valid <- false) set) t.slots

let occupancy t =
  Array.fold_left
    (fun n set -> Array.fold_left (fun n s -> if s.valid then n + 1 else n) n set)
    0 t.slots

let snapshot t log =
  Array.iteri
    (fun si set ->
      Array.iter
        (fun s ->
          if s.valid then
            Log.add_entry log ~slot:si
              ~note:
                (Printf.sprintf "tag=%s taken=%b owner=%s%s" (Word.to_hex s.entry.tag)
                   s.entry.taken
                   (Exec_context.to_string s.entry.owner)
                   (if t.tagged_by_owner then " id-tagged" else ""))
              s.entry.target)
        set)
    t.slots
