type t = {
  sets : int;
  ways : int;
  masks : int array;
  nonempty : int array;
  mutable count : int;
}

(* Sets per bitmap word: every bit below the sign bit. *)
let word_bits = Sys.int_size - 1

(* A cursor is [set lsl way_bits lor way]; ways stay below 63. *)
let way_bits = 6

let create ~sets ~ways =
  assert (sets > 0 && ways > 0 && ways < Sys.int_size);
  {
    sets;
    ways;
    masks = Array.make sets 0;
    nonempty = Array.make ((sets + word_bits - 1) / word_bits) 0;
    count = 0;
  }

let add t ~set ~way =
  let m = t.masks.(set) in
  if m land (1 lsl way) = 0 then begin
    if m = 0 then begin
      let w = set / word_bits in
      t.nonempty.(w) <- t.nonempty.(w) lor (1 lsl (set mod word_bits))
    end;
    t.masks.(set) <- m lor (1 lsl way);
    t.count <- t.count + 1
  end

let remove t ~set ~way =
  let m = t.masks.(set) in
  if m land (1 lsl way) <> 0 then begin
    let m = m land lnot (1 lsl way) in
    t.masks.(set) <- m;
    if m = 0 then begin
      let w = set / word_bits in
      t.nonempty.(w) <- t.nonempty.(w) land lnot (1 lsl (set mod word_bits))
    end;
    t.count <- t.count - 1
  end

(* The index of the lowest set bit of [x <> 0]. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF_FFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let clear t =
  for w = 0 to Array.length t.nonempty - 1 do
    let bits = ref t.nonempty.(w) in
    while !bits <> 0 do
      t.masks.((w * word_bits) + ctz !bits) <- 0;
      bits := !bits land (!bits - 1)
    done;
    t.nonempty.(w) <- 0
  done;
  t.count <- 0

let free_way t set =
  let free = lnot t.masks.(set) land ((1 lsl t.ways) - 1) in
  if free = 0 then -1 else ctz free

let cursor set way = (set lsl way_bits) lor way
let set_of c = c lsr way_bits
let way_of c = c land ((1 lsl way_bits) - 1)

(* The first live entry of the first non-empty set at or after [set]. *)
let seek t set =
  if set >= t.sets then -1
  else begin
    let last = Array.length t.nonempty - 1 in
    let w = ref (set / word_bits) in
    let bits = ref (t.nonempty.(!w) land (-1 lsl (set mod word_bits))) in
    while !bits = 0 && !w < last do
      incr w;
      bits := t.nonempty.(!w)
    done;
    if !bits = 0 then -1
    else
      let set = (!w * word_bits) + ctz !bits in
      cursor set (ctz t.masks.(set))
  end

(* The live entry after cursor [c], read afresh from the index so [f]
   may invalidate the entry it is given. *)
let next t c =
  let set = set_of c in
  let above = t.masks.(set) land (-1 lsl (way_of c + 1)) in
  if above <> 0 then cursor set (ctz above) else seek t (set + 1)

let iter t entries f x =
  let c = ref (seek t 0) in
  while !c >= 0 do
    f x !c entries.(set_of !c).(way_of !c);
    c := next t !c
  done
