type address_mode = Off | Tor | Na4 | Napot
type permission = { read : bool; write : bool; execute : bool }

let no_access = { read = false; write = false; execute = false }
let read_only = { read = true; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }
let full_access = { read = true; write = true; execute = true }

type entry = {
  mode : address_mode;
  perm : permission;
  locked : bool;
  address : Word.t;
}

let disabled_entry = { mode = Off; perm = no_access; locked = false; address = 0L }

(* The entries, plus their byte ranges decoded once per update so that
   a check reads them in place and allocates nothing.  [ranged.[i]] is 1
   when entry [i] covers [ranges.[16i] .. ranges.[16i+8]) (base and
   wrapped end, each stored with its sign bit flipped so that signed
   comparison orders them as unsigned) and 0 when it covers no bytes
   ([Off], or an empty TOR range). *)
type t = {
  entries : entry array;
  ranges : Bytes.t;
  ranged : Bytes.t;
  mutable any_active : bool;
}

let entry_count = 16

let create () =
  {
    entries = Array.make entry_count disabled_entry;
    ranges = Bytes.make (16 * entry_count) '\000';
    ranged = Bytes.make entry_count '\000';
    any_active = false;
  }

let get t i = t.entries.(i)

let napot_entry ~base ~size ~perm ~locked =
  assert (size >= 8 && size land (size - 1) = 0);
  assert (Word.is_aligned base ~alignment:size);
  (* pmpaddr holds (base >> 2) with the low bits encoding the region size:
     a NAPOT region of 2^(n+3) bytes has n trailing one bits after the
     mandatory 0 -> 01...1 pattern. *)
  let ones =
    let rec count n acc = if n <= 8 then acc else count (n lsr 1) (acc + 1) in
    count size 0
  in
  let low = Word.mask ones in
  let address = Int64.logor (Int64.shift_right_logical base 2) low in
  { mode = Napot; perm; locked; address }

let napot_range e =
  (* Count trailing ones of the pmpaddr value to recover the size. *)
  let rec trailing_ones x n =
    if Int64.logand x 1L = 1L then trailing_ones (Int64.shift_right_logical x 1) (n + 1)
    else n
  in
  let ones = trailing_ones e.address 0 in
  let size = Int64.shift_left 1L (ones + 3) in
  let base =
    Int64.shift_left (Int64.logand e.address (Int64.lognot (Word.mask ones))) 2
  in
  (base, size)

type access_kind = Read | Write | Execute

type check_result = Allowed | Denied of { entry_index : int option }

let entry_byte_range (entries : entry array) i =
  let e = entries.(i) in
  match e.mode with
  | Off -> None
  | Na4 -> Some (Int64.shift_left e.address 2, 4L)
  | Napot -> Some (napot_range e)
  | Tor ->
    let base = if i = 0 then 0L else Int64.shift_left entries.(i - 1).address 2 in
    let top = Int64.shift_left e.address 2 in
    if Int64.unsigned_compare top base <= 0 then None
    else Some (base, Int64.sub top base)

let flip x = Int64.logxor x Int64.min_int

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Re-decodes every range: a TOR entry's base is its predecessor's
   address, so one update can move two ranges. *)
let decode t =
  t.any_active <- Array.exists (fun e -> e.mode <> Off) t.entries;
  for i = 0 to entry_count - 1 do
    match entry_byte_range t.entries i with
    | None -> Bytes.set_uint8 t.ranged i 0
    | Some (base, range_size) ->
      Bytes.set_uint8 t.ranged i 1;
      set64 t.ranges (16 * i) (flip base);
      set64 t.ranges ((16 * i) + 8) (flip (Int64.add base range_size))
  done

let set t i e =
  t.entries.(i) <- e;
  decode t

let clear t =
  Array.fill t.entries 0 entry_count disabled_entry;
  decode t

(* Entries are immutable records, so copying the arrays is deep. *)
let copy t =
  {
    entries = Array.copy t.entries;
    ranges = Bytes.copy t.ranges;
    ranged = Bytes.copy t.ranged;
    any_active = t.any_active;
  }

let restore_into src ~into =
  Array.blit src.entries 0 into.entries 0 entry_count;
  Bytes.blit src.ranges 0 into.ranges 0 (Bytes.length src.ranges);
  Bytes.blit src.ranged 0 into.ranged 0 entry_count;
  into.any_active <- src.any_active

let perm_allows perm = function
  | Read -> perm.read
  | Write -> perm.write
  | Execute -> perm.execute

(* -1 when the access is allowed; otherwise the denying entry's index,
   or [entry_count] for the no-match default.  The first entry matching
   any byte of the access decides; unsigned order is signed order on
   flipped words. *)
let verdict t ~priv ~kind ~addr ~size =
  let lo = flip addr and hi = flip (Int64.add addr (Int64.of_int size)) in
  let i = ref 0 and found = ref entry_count and full = ref false in
  while !found = entry_count && !i < entry_count do
    if Bytes.get_uint8 t.ranged !i = 1 then begin
      let base = get64 t.ranges (16 * !i) and range_end = get64 t.ranges ((16 * !i) + 8) in
      let starts_inside = lo >= base && lo < range_end in
      let ends_inside = hi > base && hi <= range_end in
      if starts_inside || ends_inside then begin
        found := !i;
        full := starts_inside && ends_inside
      end
    end;
    incr i
  done;
  let i = !found in
  if i = entry_count then
    (* No entry matched: M-mode succeeds; lower modes fail whenever any
       entry is active. *)
    if Priv.equal priv Priv.Machine || not t.any_active then -1 else entry_count
  else if not !full then i
  else
    let e = t.entries.(i) in
    if Priv.equal priv Priv.Machine && not e.locked then -1
    else if perm_allows e.perm kind then -1
    else i

let check t ~priv ~kind ~addr ~size =
  match verdict t ~priv ~kind ~addr ~size with
  | -1 -> Allowed
  | i when i = entry_count -> Denied { entry_index = None }
  | i -> Denied { entry_index = Some i }

let allows t ~priv ~kind ~addr ~size = verdict t ~priv ~kind ~addr ~size < 0

(* The lowest-index entry overlapping any byte of the region decides,
   and it must contain the whole region.  Unlike [verdict]'s match, an
   entry lying strictly inside the region counts as overlapping it, so
   a [true] here means [allows] holds for every word-sized access
   inside.  An empty or address-space-wrapping region is refused. *)
let allows_region t ~priv ~kind ~addr ~size =
  let lo = flip addr and hi = flip (Int64.add addr (Int64.of_int size)) in
  let i = ref 0 and found = ref entry_count in
  while !found = entry_count && !i < entry_count do
    if Bytes.get_uint8 t.ranged !i = 1
       && lo < get64 t.ranges ((16 * !i) + 8) && hi > get64 t.ranges (16 * !i)
    then found := !i;
    incr i
  done;
  let i = !found in
  lo < hi
  &&
  if i = entry_count then Priv.equal priv Priv.Machine || not t.any_active
  else
    let e = t.entries.(i) in
    lo >= get64 t.ranges (16 * i) && hi <= get64 t.ranges ((16 * i) + 8)
    && ((Priv.equal priv Priv.Machine && not e.locked) || perm_allows e.perm kind)
