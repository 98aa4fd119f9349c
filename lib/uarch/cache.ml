open Import

type line = {
  mutable valid : bool;
  mutable tag : Word.t;  (* line base address *)
  mutable dirty : bool;
  data : Word.t array;
}

type t = {
  sets : int;
  ways : int;
  lines : line array array;  (* [set].[way] *)
  next_victim : int array;  (* round-robin pointer per set *)
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
              { valid = false; tag = 0L; dirty = false; data = Array.make line_words 0L }));
    next_victim = Array.make sets 0;
  }

let sets t = t.sets
let ways t = t.ways

(* A capture stores only the live lines, so a snapshot of a
   mostly-empty cache costs a few hundred words rather than one record
   per (set, way) of the geometry.  It is a restore source only — never
   a live cache — which is what lets it drop the invalid slots
   entirely. *)
type captured_line = {
  cl_set : int;
  cl_way : int;
  cl_tag : Word.t;
  cl_dirty : bool;
  cl_data : Word.t array;
}

type capture = {
  cap_sets : int;
  cap_ways : int;
  cap_lines : captured_line array;
  cap_next_victim : int array;
}

let capture t =
  let acc = ref [] in
  for si = t.sets - 1 downto 0 do
    let set = t.lines.(si) in
    for wi = t.ways - 1 downto 0 do
      let l = set.(wi) in
      if l.valid then
        acc :=
          { cl_set = si; cl_way = wi; cl_tag = l.tag; cl_dirty = l.dirty;
            cl_data = Array.copy l.data }
          :: !acc
    done
  done;
  {
    cap_sets = t.sets;
    cap_ways = t.ways;
    cap_lines = Array.of_list !acc;
    cap_next_victim = Array.copy t.next_victim;
  }

let restore_capture cap ~into =
  if cap.cap_sets <> into.sets || cap.cap_ways <> into.ways then
    invalid_arg "Cache.restore_capture: geometry mismatch";
  Array.iter (fun set -> Array.iter (fun l -> l.valid <- false) set) into.lines;
  Array.iter
    (fun cl ->
      let l = into.lines.(cl.cl_set).(cl.cl_way) in
      l.valid <- true;
      l.tag <- cl.cl_tag;
      l.dirty <- cl.cl_dirty;
      Array.blit cl.cl_data 0 l.data 0 line_words)
    cap.cap_lines;
  Array.blit cap.cap_next_victim 0 into.next_victim 0 cap.cap_sets

(* Address arithmetic stays on unboxed primitives: a lookup allocates
   nothing. *)
let line_mask = Int64.lognot (Int64.of_int (Memory.line_bytes - 1))
let line_base addr = Int64.logand addr line_mask

let set_index t addr =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (line_base addr) 6)
                  (Int64.of_int t.sets))

(* The valid line holding [addr], or [no_line]. *)
let no_line = { valid = false; tag = 0L; dirty = false; data = [||] }

let find t addr =
  let base = line_base addr in
  let set = t.lines.(set_index t addr) in
  let way = ref 0 and found = ref no_line in
  while !found == no_line && !way < t.ways do
    let l = set.(!way) in
    if l.valid && l.tag = base then found := l;
    incr way
  done;
  !found

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

let insert t ~addr line_data =
  assert (Array.length line_data = line_words);
  let base = line_base addr in
  let l = find t addr in
  if l != no_line then begin
    Array.blit line_data 0 l.data 0 line_words;
    None
  end
  else
    let si = set_index t addr in
    let set = t.lines.(si) in
    let way =
      (* Prefer an invalid way; otherwise round-robin. *)
      let rec free w = if w >= t.ways then None else if set.(w).valid then free (w + 1) else Some w in
      match free 0 with
      | Some w -> w
      | None ->
        let w = t.next_victim.(si) in
        t.next_victim.(si) <- (w + 1) mod t.ways;
        w
    in
    let victim = set.(way) in
    let evicted =
      if victim.valid then Some (victim.tag, Array.copy victim.data, victim.dirty)
      else None
    in
    victim.valid <- true;
    victim.tag <- base;
    victim.dirty <- false;
    Array.blit line_data 0 victim.data 0 line_words;
    evicted

let evict t ~addr =
  let l = find t addr in
  if l == no_line then None
  else begin
    l.valid <- false;
    Some (Array.copy l.data, l.dirty)
  end

let flush t =
  let dirty = ref [] in
  Array.iter
    (fun set ->
      Array.iter
        (fun l ->
          if l.valid then begin
            if l.dirty then dirty := (l.tag, Array.copy l.data) :: !dirty;
            l.valid <- false
          end)
        set)
    t.lines;
  !dirty

let contains t ~addr = find t addr != no_line

let valid_lines t =
  let acc = ref [] in
  Array.iter
    (fun set ->
      Array.iter (fun l -> if l.valid then acc := (l.tag, Array.copy l.data) :: !acc) set)
    t.lines;
  List.rev !acc

let snapshot t log =
  Array.iter
    (Array.iter (fun l -> if l.valid then Log.add_words log ~addr:l.tag l.data))
    t.lines

let corrupt_bit t ~select ~bit =
  let valid = ref [] in
  Array.iter
    (fun set -> Array.iter (fun l -> if l.valid then valid := l :: !valid) set)
    t.lines;
  match List.rev !valid with
  | [] -> None
  | lines ->
    let n = List.length lines in
    let l = List.nth lines (select mod n) in
    let word = select / n mod line_words in
    let pos = bit mod 64 in
    l.data.(word) <- Int64.logxor l.data.(word) (Int64.shift_left 1L pos);
    l.dirty <- true;
    Some (Int64.add l.tag (Int64.of_int (word * 8)), l.data.(word))
