type t = int64

let mask bits =
  assert (bits >= 0 && bits <= 64);
  if bits = 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

let extract x ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= 64);
  Int64.logand (Int64.shift_right_logical x pos) (mask len)

let sign_extend x ~bits =
  assert (bits > 0 && bits <= 64);
  if bits = 64 then x
  else
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left x shift) shift

let align_down x ~alignment =
  assert (alignment > 0 && alignment land (alignment - 1) = 0);
  Int64.logand x (Int64.lognot (Int64.of_int (alignment - 1)))

let is_aligned x ~alignment =
  assert (alignment > 0 && alignment land (alignment - 1) = 0);
  Int64.logand x (Int64.of_int (alignment - 1)) = 0L

let splitmix64 x =
  let x = Int64.add x 0x9E3779B97F4A7C15L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let pp fmt x = Format.fprintf fmt "0x%016Lx" x
(* [Printf.sprintf "0x%Lx"] without the format interpreter: commits
   render their immediates with it. *)
let to_hex x =
  let digits = ref 1 in
  while !digits < 16 && Int64.shift_right_logical x (4 * !digits) <> 0L do
    incr digits
  done;
  let b = Bytes.create (2 + !digits) in
  Bytes.set b 0 '0';
  Bytes.set b 1 'x';
  for i = 0 to !digits - 1 do
    let d = Int64.to_int (Int64.shift_right_logical x (4 * (!digits - 1 - i))) land 15 in
    Bytes.set b (2 + i) "0123456789abcdef".[d]
  done;
  Bytes.unsafe_to_string b

let byte_of x ~index = Int64.to_int (extract x ~pos:(index * 8) ~len:8)

let set_byte x ~index ~byte =
  assert (index >= 0 && index < 8 && byte >= 0 && byte < 256);
  let cleared = Int64.logand x (Int64.lognot (Int64.shift_left 0xFFL (index * 8))) in
  Int64.logor cleared (Int64.shift_left (Int64.of_int byte) (index * 8))
