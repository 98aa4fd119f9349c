type t = (int64, Word.t) Hashtbl.t

let line_bytes = 64
let create () : t = Hashtbl.create 4096
(* Snapshot form: the written granules as a flat pair array, without
   the source table's bucket array (which dominates a [Hashtbl.copy] of
   a mostly-empty memory). *)
type capture = (int64 * Word.t) array

let capture (t : t) : capture = Array.of_seq (Hashtbl.to_seq t)

let restore_capture (cap : capture) ~(into : t) =
  Hashtbl.reset into;
  Array.iter (fun (g, w) -> Hashtbl.replace into g w) cap

let granule addr = Int64.shift_right_logical addr 3
let granule_base addr = Word.align_down addr ~alignment:8

let read_word t addr =
  Option.value (Hashtbl.find_opt t (granule addr)) ~default:0L

let write_word t addr v = Hashtbl.replace t (granule addr) v

let read_byte t addr =
  let w = read_word t (granule_base addr) in
  Word.byte_of w ~index:(Int64.to_int (Int64.rem addr 8L))

let write_byte t addr byte =
  let base = granule_base addr in
  let w = read_word t base in
  write_word t base (Word.set_byte w ~index:(Int64.to_int (Int64.rem addr 8L)) ~byte)

let read t ~addr ~size =
  assert (size = 1 || size = 2 || size = 4 || size = 8);
  if size = 8 && Word.is_aligned addr ~alignment:8 then read_word t addr
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
  if size = 8 && Word.is_aligned addr ~alignment:8 then write_word t addr v
  else
    for i = 0 to size - 1 do
      write_byte t (Int64.add addr (Int64.of_int i)) (Word.byte_of v ~index:i)
    done

let read_line t ~addr =
  let base = Word.align_down addr ~alignment:line_bytes in
  Array.init (line_bytes / 8) (fun i ->
      read_word t (Int64.add base (Int64.of_int (i * 8))))

let write_line t ~addr line =
  assert (Array.length line = line_bytes / 8);
  let base = Word.align_down addr ~alignment:line_bytes in
  Array.iteri (fun i w -> write_word t (Int64.add base (Int64.of_int (i * 8))) w) line

let fill t ~addr ~size ~value =
  let base = granule_base addr in
  let count = Int64.to_int (Int64.div (Int64.add size 7L) 8L) in
  for i = 0 to count - 1 do
    write_word t (Int64.add base (Int64.of_int (i * 8))) value
  done

let words_written t = Hashtbl.length t
