open! Import

type t = { lo : Word.t; hi : Word.t; zeros : Word.t; ones : Word.t }

(* Signed helpers; the interval component uses signed order because the
   machine's Lt/Ge branches do ([Instr.eval_cond]). *)
let min_s a b = if Int64.compare a b <= 0 then a else b
let max_s a b = if Int64.compare a b >= 0 then a else b

let unknown_of ~zeros ~ones = Int64.lognot (Int64.logor zeros ones)

(* Signed extremes of the set of words compatible with the bit masks:
   the minimum takes the sign bit when it is free and clears every other
   free bit; the maximum does the opposite. *)
let bits_min ~zeros ~ones =
  Int64.logor ones (Int64.logand (unknown_of ~zeros ~ones) Int64.min_int)

let bits_max ~zeros ~ones =
  Int64.logor ones (Int64.logand (unknown_of ~zeros ~ones) Int64.max_int)

let clz x =
  if Int64.equal x 0L then 64
  else begin
    let n = ref 0 in
    while Int64.equal (Int64.logand (Int64.shift_left 1L (63 - !n)) x) 0L do
      incr n
    done;
    !n
  end

(* Mask of the [k] highest bits (0 <= k <= 64). *)
let high_mask k =
  if k <= 0 then 0L
  else if k >= 64 then -1L
  else Int64.shift_left (-1L) (64 - k)

let low_mask k =
  if k <= 0 then 0L else if k >= 64 then -1L else Int64.lognot (high_mask (64 - k))

(* Normalisation: tighten the interval against the bit masks and vice
   versa until a (small) fixpoint.  Every tightening step only removes
   words that violate one of the stored constraints, so normalisation
   never drops a member. *)
let rec norm ~lo ~hi ~zeros ~ones fuel =
  if not (Int64.equal (Int64.logand zeros ones) 0L) then None
  else begin
    let lo = max_s lo (bits_min ~zeros ~ones) in
    let hi = min_s hi (bits_max ~zeros ~ones) in
    if Int64.compare lo hi > 0 then None
    else if Int64.equal lo hi then begin
      (* Singleton interval: the bit masks must agree with the value. *)
      let zeros' = Int64.logor zeros (Int64.lognot lo) in
      let ones' = Int64.logor ones lo in
      if Int64.equal zeros' zeros && Int64.equal ones' ones then
        Some { lo; hi; zeros; ones }
      else if fuel = 0 then Some { lo; hi; zeros; ones }
      else norm ~lo ~hi ~zeros:zeros' ~ones:ones' (fuel - 1)
    end
    else begin
      (* Non-negative interval: bits above [hi]'s top set bit are 0. *)
      let zeros' =
        if Int64.compare lo 0L >= 0 then Int64.logor zeros (high_mask (clz hi))
        else zeros
      in
      if Int64.equal zeros' zeros || fuel = 0 then Some { lo; hi; zeros; ones }
      else norm ~lo ~hi ~zeros:zeros' ~ones (fuel - 1)
    end
  end

let make ~lo ~hi ~zeros ~ones = norm ~lo ~hi ~zeros ~ones 4

let top = { lo = Int64.min_int; hi = Int64.max_int; zeros = 0L; ones = 0L }
let const v = { lo = v; hi = v; zeros = Int64.lognot v; ones = v }

let of_interval ~lo ~hi = make ~lo ~hi ~zeros:0L ~ones:0L

let of_bits ~zeros ~ones =
  make ~lo:Int64.min_int ~hi:Int64.max_int ~zeros ~ones

let mem x t =
  Int64.compare t.lo x <= 0
  && Int64.compare x t.hi <= 0
  && Int64.equal (Int64.logand x t.zeros) 0L
  && Int64.equal (Int64.logand x t.ones) t.ones

let as_const t = if Int64.equal t.lo t.hi then Some t.lo else None
let unknown_bits t = unknown_of ~zeros:t.zeros ~ones:t.ones

let join a b =
  (* Hull of the intervals, intersection of the known bits: both are
     upper bounds, so normalisation cannot fail. *)
  match
    make ~lo:(min_s a.lo b.lo) ~hi:(max_s a.hi b.hi)
      ~zeros:(Int64.logand a.zeros b.zeros)
      ~ones:(Int64.logand a.ones b.ones)
  with
  | Some t -> t
  | None -> top

let meet a b =
  make ~lo:(max_s a.lo b.lo) ~hi:(min_s a.hi b.hi)
    ~zeros:(Int64.logor a.zeros b.zeros)
    ~ones:(Int64.logor a.ones b.ones)

(* {2 Forward transfer}

   Each case either tracks the component it can compute exactly (bit
   masks for the logical operations and constant shifts, interval for
   add/sub) and leaves the other at top for normalisation to recover
   what it can, or falls back to [top] — always an over-approximation,
   never an under-approximation. *)

let with_bits ~zeros ~ones =
  match of_bits ~zeros ~ones with Some t -> t | None -> top

let signed_add_overflows a b =
  let s = Int64.add a b in
  Int64.compare (Int64.logxor a b) 0L >= 0 && Int64.compare (Int64.logxor a s) 0L < 0

let transfer op a b =
  match (as_const a, as_const b) with
  | Some x, Some y -> const (Instr.eval_alu op x y)
  | _ -> (
    match (op : Instr.alu_op) with
    | Instr.Add ->
      if signed_add_overflows a.lo b.lo || signed_add_overflows a.hi b.hi then top
      else (
        match of_interval ~lo:(Int64.add a.lo b.lo) ~hi:(Int64.add a.hi b.hi) with
        | Some t -> t
        | None -> top)
    | Instr.Sub ->
      if
        signed_add_overflows a.lo (Int64.neg b.hi)
        || signed_add_overflows a.hi (Int64.neg b.lo)
        || Int64.equal b.lo Int64.min_int (* -min_int overflows *)
        || Int64.equal b.hi Int64.min_int
      then top
      else (
        match of_interval ~lo:(Int64.sub a.lo b.hi) ~hi:(Int64.sub a.hi b.lo) with
        | Some t -> t
        | None -> top)
    | Instr.And ->
      with_bits
        ~zeros:(Int64.logor a.zeros b.zeros)
        ~ones:(Int64.logand a.ones b.ones)
    | Instr.Or ->
      with_bits
        ~zeros:(Int64.logand a.zeros b.zeros)
        ~ones:(Int64.logor a.ones b.ones)
    | Instr.Xor ->
      with_bits
        ~zeros:
          (Int64.logor
             (Int64.logand a.zeros b.zeros)
             (Int64.logand a.ones b.ones))
        ~ones:
          (Int64.logor
             (Int64.logand a.ones b.zeros)
             (Int64.logand a.zeros b.ones))
    | Instr.Sll -> (
      match as_const b with
      | None -> top
      | Some k ->
        let k = Int64.to_int (Int64.logand k 63L) in
        with_bits
          ~zeros:(Int64.logor (Int64.shift_left a.zeros k) (low_mask k))
          ~ones:(Int64.shift_left a.ones k))
    | Instr.Srl -> (
      match as_const b with
      | None -> top
      | Some k ->
        let k = Int64.to_int (Int64.logand k 63L) in
        with_bits
          ~zeros:
            (Int64.logor (Int64.shift_right_logical a.zeros k) (high_mask k))
          ~ones:(Int64.shift_right_logical a.ones k)))

let candidates t =
  let unknown = unknown_bits t in
  let raw =
    [
      0L;
      1L;
      t.lo;
      t.hi;
      bits_min ~zeros:t.zeros ~ones:t.ones;
      bits_max ~zeros:t.zeros ~ones:t.ones;
      t.ones;
      Int64.logor t.ones unknown;
      Int64.minus_one;
    ]
  in
  let rec dedup seen = function
    | [] -> []
    | x :: rest ->
      if List.exists (Int64.equal x) seen then dedup seen rest
      else x :: dedup (x :: seen) rest
  in
  dedup [] (List.filter (fun x -> mem x t) raw)
