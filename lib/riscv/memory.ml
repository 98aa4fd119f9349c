(* One entry per 64-byte line, keyed by the line index (the address
   shifted right by 6, which fits a native int for every 64-bit
   address).  An entry is [line_bytes + 1] bytes: the line's data,
   little-endian, then a mask of the 8-byte granules ever written, which
   is what [words_written] counts. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = Bytes.t Lines.t

let line_bytes = 64
let line_words = line_bytes / 8
let mask_at = line_bytes
let entry_bytes = line_bytes + 1
let create () : t = Lines.create 512
let key addr = Int64.to_int (Int64.shift_right_logical addr 6)
let offset addr = Int64.to_int addr land (line_bytes - 1)

(* The entry for [addr]'s line, created zeroed when absent. *)
let entry_for_write t addr =
  let k = key addr in
  match Lines.find_opt t k with
  | Some e -> e
  | None ->
    let e = Bytes.make entry_bytes '\000' in
    Lines.add t k e;
    e

(* Marks the granule holding byte [off] of entry [e] as written. *)
let mark e off = Bytes.set_uint8 e mask_at (Bytes.get_uint8 e mask_at lor (1 lsl (off lsr 3)))

(* Snapshot form: the entries' keys and their bytes packed end to end,
   without the source table's bucket array. *)
type capture = { keys : int array; entries : Bytes.t }

let capture (t : t) : capture =
  let keys = Array.make (Lines.length t) 0 in
  let entries = Bytes.create (Array.length keys * entry_bytes) and i = ref 0 in
  Lines.iter
    (fun k e ->
      keys.(!i) <- k;
      Bytes.blit e 0 entries (!i * entry_bytes) entry_bytes;
      incr i)
    t;
  { keys; entries }

let restore_capture (cap : capture) ~(into : t) =
  Lines.reset into;
  Array.iteri
    (fun i k -> Lines.add into k (Bytes.sub cap.entries (i * entry_bytes) entry_bytes))
    cap.keys

let read_byte t addr =
  match Lines.find_opt t (key addr) with
  | Some e -> Bytes.get_uint8 e (offset addr)
  | None -> 0

let write_byte t addr byte =
  let e = entry_for_write t addr and off = offset addr in
  Bytes.set_uint8 e off byte;
  mark e off

let read t ~addr ~size =
  assert (size = 1 || size = 2 || size = 4 || size = 8);
  if size = 8 && Word.is_aligned addr ~alignment:8 then
    match Lines.find_opt t (key addr) with
    | Some e -> Bytes.get_int64_le e (offset addr)
    | None -> 0L
  else begin
    let v = ref 0L in
    for i = size - 1 downto 0 do
      let byte = read_byte t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
    done;
    !v
  end

let write t ~addr ~size v =
  assert (size = 1 || size = 2 || size = 4 || size = 8);
  if size = 8 && Word.is_aligned addr ~alignment:8 then begin
    let e = entry_for_write t addr and off = offset addr in
    Bytes.set_int64_le e off v;
    mark e off
  end
  else
    for i = 0 to size - 1 do
      write_byte t (Int64.add addr (Int64.of_int i)) (Word.byte_of v ~index:i)
    done

let read_line t ~addr =
  match Lines.find_opt t (key addr) with
  | Some e -> Array.init line_words (fun i -> Bytes.get_int64_le e (8 * i))
  | None -> Array.make line_words 0L

let write_line t ~addr line =
  assert (Array.length line = line_words);
  let e = entry_for_write t addr in
  for i = 0 to line_words - 1 do
    Bytes.set_int64_le e (8 * i) line.(i)
  done;
  Bytes.set_uint8 e mask_at 0xFF

let words_written t =
  let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
  Lines.fold (fun _ e n -> n + popcount (Bytes.get_uint8 e mask_at)) t 0
