open Import

type entry = {
  tag : Word.t;
  target : Word.t;
  taken : bool;
  owner : Exec_context.t;
  note : string;
}

(* An installed entry with its residue-snapshot note, both built once by
   [update].  A slot means something only while [live] marks it valid. *)
type slot = { entry : entry; residue_note : string }

type t = {
  sets : int;
  ways : int;
  tag_bits : int;
  index_bits : int;
  tagged_by_owner : bool;
  slots : slot array array;  (* [set].[way] *)
  live : Occupancy.t;
  next_way : Round_robin.t;
}

let empty =
  {
    entry = { tag = 0L; target = 0L; taken = false; owner = Exec_context.Monitor; note = "" };
    residue_note = "";
  }

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
    slots = Array.init sets (fun _ -> Array.make ways empty);
    live = Occupancy.create ~sets ~ways;
    next_way = Round_robin.create ~sets ~ways;
  }

(* Live-slots-only snapshot form; see {!Cache.capture} for the
   rationale.  Slots are immutable, so a capture shares them, and the
   round-robin pointers copy-on-write ({!Round_robin}). *)
type capture = {
  cap_sets : int;
  cap_ways : int;
  cap_tag_bits : int;
  cap_tagged_by_owner : bool;
  cap_at : int array;  (* occupancy cursors *)
  cap_slots : slot array;
  cap_next_way : Round_robin.capture;
}

let capture t =
  let n = t.live.Occupancy.count in
  let at = Array.make n 0 and slots = Array.make n empty and i = ref 0 in
  Occupancy.iter t.live t.slots
    (fun () c s ->
      at.(!i) <- c;
      slots.(!i) <- s;
      incr i)
    ();
  {
    cap_sets = t.sets;
    cap_ways = t.ways;
    cap_tag_bits = t.tag_bits;
    cap_tagged_by_owner = t.tagged_by_owner;
    cap_at = at;
    cap_slots = slots;
    cap_next_way = Round_robin.capture t.next_way;
  }

let restore_capture cap ~into =
  if
    cap.cap_sets <> into.sets || cap.cap_ways <> into.ways
    || cap.cap_tag_bits <> into.tag_bits
    || cap.cap_tagged_by_owner <> into.tagged_by_owner
  then invalid_arg "Btb.restore_capture: geometry mismatch";
  Occupancy.clear into.live;
  Array.iteri
    (fun i c ->
      let set = Occupancy.set_of c and way = Occupancy.way_of c in
      into.slots.(set).(way) <- cap.cap_slots.(i);
      Occupancy.add into.live ~set ~way)
    cap.cap_at;
  Round_robin.restore into.next_way cap.cap_next_way

(* Instructions are 4-byte aligned in this model; bit 1 upward indexes. *)
let index_of t ~pc = Int64.to_int (Word.extract pc ~pos:1 ~len:t.index_bits)

let tag_of t ~pc = Word.extract pc ~pos:(1 + t.index_bits) ~len:t.tag_bits

(* The lowest valid way of set [si] whose entry carries [tag], or -1. *)
let find_way t si tag =
  let set = t.slots.(si) and live = t.live.Occupancy.masks.(si) in
  let found = ref (-1) in
  for w = t.ways - 1 downto 0 do
    if live land (1 lsl w) <> 0 && Int64.equal set.(w).entry.tag tag then found := w
  done;
  !found

let lookup t ~pc =
  let si = index_of t ~pc in
  let way = find_way t si (tag_of t ~pc) in
  if way < 0 then None else Some t.slots.(si).(way).entry

let predict t ~pc ~ctx =
  match lookup t ~pc with
  | Some entry when t.tagged_by_owner && not (Exec_context.equal entry.owner ctx) ->
    None
  | hit -> hit

let update t ~pc ~target ~taken ~owner =
  let si = index_of t ~pc in
  let tag = tag_of t ~pc in
  (* The slot already holding [tag], else an invalid one, else
     round-robin. *)
  let way =
    let hit = find_way t si tag in
    if hit >= 0 then hit
    else
      let free = Occupancy.free_way t.live si in
      if free >= 0 then free else Round_robin.victim t.next_way si
  in
  let note =
    Printf.sprintf "tag=%s taken=%b owner=%s" (Word.to_hex tag) taken
      (Exec_context.to_string owner)
  in
  let entry = { tag; target; taken; owner; note } in
  t.slots.(si).(way) <-
    { entry; residue_note = (if t.tagged_by_owner then note ^ " id-tagged" else note) };
  Occupancy.add t.live ~set:si ~way;
  (si, entry)

let aliases t ~pc1 ~pc2 =
  index_of t ~pc:pc1 = index_of t ~pc:pc2
  && Int64.equal (tag_of t ~pc:pc1) (tag_of t ~pc:pc2)

let flush t = Occupancy.clear t.live
let occupancy t = t.live.Occupancy.count

let snapshot t log =
  Occupancy.iter t.live t.slots
    (fun log c s ->
      Log.add_entry log ~slot:(Occupancy.set_of c) ~note:s.residue_note s.entry.target)
    log
