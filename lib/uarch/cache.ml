open Import

(* A line's fields mean something only while [live] marks its way
   valid: the occupancy index is the one record of validity. *)
type line = {
  mutable tag : Word.t;  (* line base address *)
  mutable dirty : bool;
  data : Word.t array;
}

type t = {
  sets : int;
  ways : int;
  lines : line array array;  (* [set].[way] *)
  live : Occupancy.t;
  victims : Round_robin.t;
}

let line_words = Memory.line_bytes / 8

let create ~sets ~ways =
  assert (sets > 0 && sets land (sets - 1) = 0);
  {
    sets;
    ways;
    lines =
      Array.init sets (fun _ ->
          Array.init ways (fun _ ->
              { tag = 0L; dirty = false; data = Array.make line_words 0L }));
    live = Occupancy.create ~sets ~ways;
    victims = Round_robin.create ~sets ~ways;
  }

let occupancy t = t.live.Occupancy.count

(* A capture stores only the live lines, so a snapshot of a
   mostly-empty cache costs a few hundred words rather than one record
   per (set, way) of the geometry.  It is a restore source only — never
   a live cache — which is what lets it drop the invalid slots
   entirely.  It shares the round-robin pointers copy-on-write
   ({!Round_robin}). *)
type captured_line = {
  cl_at : int;  (* occupancy cursor *)
  cl_tag : Word.t;
  cl_dirty : bool;
  cl_data : Word.t array;
}

type capture = {
  cap_sets : int;
  cap_ways : int;
  cap_lines : captured_line array;
  cap_victims : Round_robin.capture;
}

let no_capture = { cl_at = -1; cl_tag = 0L; cl_dirty = false; cl_data = [||] }

let capture t =
  let lines = Array.make (occupancy t) no_capture and n = ref 0 in
  Occupancy.iter t.live t.lines
    (fun () c l ->
      lines.(!n) <-
        { cl_at = c; cl_tag = l.tag; cl_dirty = l.dirty; cl_data = Array.copy l.data };
      incr n)
    ();
  {
    cap_sets = t.sets;
    cap_ways = t.ways;
    cap_lines = lines;
    cap_victims = Round_robin.capture t.victims;
  }

let restore_capture cap ~into =
  if cap.cap_sets <> into.sets || cap.cap_ways <> into.ways then
    invalid_arg "Cache.restore_capture: geometry mismatch";
  Occupancy.clear into.live;
  Array.iter
    (fun cl ->
      let set = Occupancy.set_of cl.cl_at and way = Occupancy.way_of cl.cl_at in
      let l = into.lines.(set).(way) in
      l.tag <- cl.cl_tag;
      l.dirty <- cl.cl_dirty;
      Array.blit cl.cl_data 0 l.data 0 line_words;
      Occupancy.add into.live ~set ~way)
    cap.cap_lines;
  Round_robin.restore into.victims cap.cap_victims

(* Address arithmetic stays on unboxed primitives: a lookup allocates
   nothing. *)
let line_mask = Int64.lognot (Int64.of_int (Memory.line_bytes - 1))
let line_base addr = Int64.logand addr line_mask

let set_index t addr =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (line_base addr) 6)
                  (Int64.of_int t.sets))

(* The way of set [si] holding the valid line [base], or -1. *)
let find_way t si base =
  let set = t.lines.(si) and live = t.live.Occupancy.masks.(si) in
  let way = ref 0 and found = ref (-1) in
  while !found < 0 && !way < t.ways do
    if live land (1 lsl !way) <> 0 && set.(!way).tag = base then found := !way;
    incr way
  done;
  !found

(* The valid line holding [addr], or [no_line]. *)
let no_line = { tag = 0L; dirty = false; data = [||] }

let find t addr =
  let si = set_index t addr in
  let way = find_way t si (line_base addr) in
  if way < 0 then no_line else t.lines.(si).(way)

let lookup t ~addr =
  let l = find t addr in
  if l == no_line then None else Some (Array.copy l.data)

let word_index addr = Int64.to_int (Int64.shift_right_logical addr 3) land 7

let read_word t ~addr =
  let l = find t addr in
  if l == no_line then None else Some l.data.(word_index addr)

let write_word t ~addr v =
  let l = find t addr in
  if l == no_line then false
  else begin
    l.data.(word_index addr) <- v;
    l.dirty <- true;
    true
  end

let write_run t ~addr ~n v =
  let l = find t addr in
  if l == no_line then false
  else begin
    Array.fill l.data (word_index addr) n v;
    l.dirty <- true;
    true
  end

let insert t ~addr line_data =
  assert (Array.length line_data = line_words);
  let l = find t addr in
  if l != no_line then begin
    Array.blit line_data 0 l.data 0 line_words;
    None
  end
  else
    let si = set_index t addr in
    (* Prefer an invalid way; otherwise round-robin over valid ones. *)
    let free = Occupancy.free_way t.live si in
    let way = if free >= 0 then free else Round_robin.victim t.victims si in
    let victim = t.lines.(si).(way) in
    let evicted =
      if free >= 0 then None else Some (victim.tag, Array.copy victim.data, victim.dirty)
    in
    victim.tag <- line_base addr;
    victim.dirty <- false;
    Array.blit line_data 0 victim.data 0 line_words;
    Occupancy.add t.live ~set:si ~way;
    evicted

let evict t ~addr =
  let si = set_index t addr in
  let way = find_way t si (line_base addr) in
  if way < 0 then None
  else begin
    Occupancy.remove t.live ~set:si ~way;
    let l = t.lines.(si).(way) in
    Some (Array.copy l.data, l.dirty)
  end

let flush t =
  let dirty = ref [] in
  Occupancy.iter t.live t.lines
    (fun dirty _ l -> if l.dirty then dirty := (l.tag, Array.copy l.data) :: !dirty)
    dirty;
  Occupancy.clear t.live;
  !dirty

let contains t ~addr = find t addr != no_line

let valid_lines t =
  let acc = ref [] in
  Occupancy.iter t.live t.lines (fun acc _ l -> acc := (l.tag, Array.copy l.data) :: !acc) acc;
  List.rev !acc

let snapshot t log =
  Occupancy.iter t.live t.lines (fun log _ l -> Log.add_words log ~addr:l.tag l.data) log

let corrupt_bit t ~select ~bit =
  let n = occupancy t in
  if n = 0 then None
  else begin
    let k = select mod n and i = ref 0 and chosen = ref no_line in
    Occupancy.iter t.live t.lines
      (fun () _ l ->
        if !i = k then chosen := l;
        incr i)
      ();
    let l = !chosen in
    let word = select / n mod line_words in
    let pos = bit mod 64 in
    l.data.(word) <- Int64.logxor l.data.(word) (Int64.shift_left 1L pos);
    l.dirty <- true;
    Some (Int64.add l.tag (Int64.of_int (word * 8)), l.data.(word))
  end
