open! Import

type t = Bytes.t

let create () = Bytes.make Edge.count '\000'
let equal = Bytes.equal

let bucket count =
  if count <= 0 then invalid_arg "Bitmap.bucket"
  else if count = 1 then 0
  else if count = 2 then 1
  else if count = 3 then 2
  else if count < 8 then 3
  else if count < 16 then 4
  else if count < 32 then 5
  else if count < 128 then 6
  else 7

let popcount byte =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go byte 0

let add t edges =
  List.fold_left
    (fun novel (index, count) ->
      let bit = 1 lsl bucket count in
      let old = Char.code (Bytes.get t index) in
      if old land bit = 0 then begin
        Bytes.set t index (Char.chr (old lor bit));
        novel + 1
      end
      else novel)
    0 edges

let union a b =
  let out = Bytes.copy a in
  Bytes.iteri
    (fun i c ->
      if c <> '\000' then
        Bytes.set out i (Char.chr (Char.code (Bytes.get out i) lor Char.code c)))
    b;
  out

let covered_edges t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t;
  !n

let covered_bits t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount (Char.code c)) t;
  !n
