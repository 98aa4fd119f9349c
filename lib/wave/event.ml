(* The wave event codec.  Determinism matters more than density — the
   same run must produce the same bytes — so nothing here reads a clock
   or hashes an address. *)

module Log = Simlog.Log
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context
module Priv = Riscv.Priv

type kind = Fill | Evict | Flush | Hit | Residue | Pmp_check | Ctx_switch

let kind_to_int = function
  | Fill -> 0
  | Evict -> 1
  | Flush -> 2
  | Hit -> 3
  | Residue -> 4
  | Pmp_check -> 5
  | Ctx_switch -> 6

let kind_of_int = function
  | 0 -> Some Fill
  | 1 -> Some Evict
  | 2 -> Some Flush
  | 3 -> Some Hit
  | 4 -> Some Residue
  | 5 -> Some Pmp_check
  | 6 -> Some Ctx_switch
  | _ -> None

let kind_to_string = function
  | Fill -> "fill"
  | Evict -> "evict"
  | Flush -> "flush"
  | Hit -> "hit"
  | Residue -> "residue"
  | Pmp_check -> "pmp-check"
  | Ctx_switch -> "ctx-switch"

(* {2 Security-domain tags}

   Contexts are flattened to small integers so a domain fits in one
   varint and renders as one VCD signal value. *)

let domain_of_ctx = function
  | Exec_context.Host Priv.User -> 0
  | Exec_context.Host Priv.Supervisor -> 1
  | Exec_context.Host Priv.Machine -> 2
  | Exec_context.Monitor -> 3
  | Exec_context.Enclave id -> 4 + id

let ctx_of_domain = function
  | 0 -> Some (Exec_context.Host Priv.User)
  | 1 -> Some (Exec_context.Host Priv.Supervisor)
  | 2 -> Some (Exec_context.Host Priv.Machine)
  | 3 -> Some Exec_context.Monitor
  | n when n >= 4 -> Some (Exec_context.Enclave (n - 4))
  | _ -> None

let domain_to_string d =
  match ctx_of_domain d with
  | Some ctx -> Exec_context.to_string ctx
  | None -> Printf.sprintf "domain-%d" d

(* {2 Structure ids}

   One byte, {!Structure.to_code} (the index in {!Structure.all}); 0xff
   marks the machine-wide events (PMP checks and domain switches). *)

let no_structure = 0xff

let structure_to_int = Structure.to_code

let structure_of_int i =
  if i >= 0 && i < Structure.count then Some (Structure.of_code i) else None

(* {2 The decoded event} *)

type t = {
  kind : kind;
  cycle : int;
  structure : Structure.t option;
  slot : int;
  domain : int;
  value : int;
}

let pp ppf e =
  Format.fprintf ppf "@[cycle %d: %s %s slot=%d domain=%s value=%d@]" e.cycle
    (kind_to_string e.kind)
    (match e.structure with Some s -> Structure.to_string s | None -> "-")
    e.slot
    (domain_to_string e.domain)
    e.value

(* {2 Binary codec} *)

(* LEB128, low seven bits first, at [p] of [b]; returns the end. *)
let rec put_varint b p n =
  assert (n >= 0);
  if n < 0x80 then begin
    Bytes.set_uint8 b p n;
    p + 1
  end
  else begin
    Bytes.set_uint8 b p (0x80 lor (n land 0x7f));
    put_varint b (p + 1) (n lsr 7)
  end

(* The longest event: a kind byte, a structure byte and four varints. *)
let event_bytes = 2 + (4 * 9)

let put_event b ~kind ~cycle ~structure_id ~slot ~domain ~value =
  Bytes.set_uint8 b 0 (kind_to_int kind);
  let p = put_varint b 1 cycle in
  Bytes.set_uint8 b p (structure_id land 0xff);
  let p = put_varint b (p + 1) slot in
  let p = put_varint b p domain in
  put_varint b p value

let encode buf ~kind ~cycle ~structure_id ~slot ~domain ~value =
  let b = Bytes.create event_bytes in
  Buffer.add_subbytes buf b 0 (put_event b ~kind ~cycle ~structure_id ~slot ~domain ~value)

exception Malformed of string

(* [put_varint] writes a non-negative int (62 value bits) in at most
   nine bytes, the ninth carrying bits 56-61 only; anything longer, or a
   ninth byte that would set the sign bit, is not one of ours. *)
let read_varint src pos =
  let len = String.length src in
  let rec go pos shift acc =
    if pos >= len then raise (Malformed "truncated varint");
    let b = Char.code src.[pos] in
    if shift = 56 && b > 0x3f then
      raise
        (Malformed
           (if b land 0x80 <> 0 then "varint longer than nine bytes"
            else "varint overflows int"));
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let decode_one src pos =
  let len = String.length src in
  if pos >= len then raise (Malformed "truncated event");
  let kind =
    match kind_of_int (Char.code src.[pos]) with
    | Some k -> k
    | None -> raise (Malformed (Printf.sprintf "bad kind byte at %d" pos))
  in
  let cycle, pos = read_varint src (pos + 1) in
  if pos >= len then raise (Malformed "truncated structure byte");
  let structure_id = Char.code src.[pos] in
  let structure =
    if structure_id = no_structure then None
    else
      match structure_of_int structure_id with
      | Some s -> Some s
      | None ->
        raise (Malformed (Printf.sprintf "bad structure id %d" structure_id))
  in
  let slot, pos = read_varint src (pos + 1) in
  let domain, pos = read_varint src pos in
  let value, pos = read_varint src pos in
  ({ kind; cycle; structure; slot; domain; value }, pos)

let decode src =
  let len = String.length src in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      let e, pos = decode_one src pos in
      go pos (e :: acc)
  in
  try Ok (go 0 []) with Malformed msg -> Error msg

(* {2 The log}

   A wave record's payload is one encoded event, copied out as is.  The
   machine taps no event that repeats a record of the log: the Residue
   of a Snapshot, the Ctx_switch of a Mode_switch, and the Fill of a
   write whose Fill would carry no occupancy are derived here, at the
   record's position. *)

let tap log ~kind ~cycle ~structure_id ~slot ~ctx ~value =
  let b = Bytes.create event_bytes in
  Log.add_wave log b
    (put_event b ~kind ~cycle ~structure_id ~slot ~domain:(domain_of_ctx ctx) ~value)

let fault_inject = Log.origin_to_code Log.Fault_inject

let fills_itself c =
  Log.Cursor.origin_code c = fault_inject
  ||
  match Structure.of_code (Log.Cursor.structure_code c) with
  | Structure.Reg_file | Structure.L1i_data | Structure.Prefetcher -> true
  | _ -> false

(* Each domain encodes its streams into one buffer that keeps its
   capacity, so a case's stream allocates only the string it returns. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

(* [clip] keeps the events from cycle [lo] to [hi] and the context
   switches before [lo]: the smallest clip that still renders the
   security domain. *)
let of_log ?clip log =
  if not (Log.tapped log) then ""
  else begin
    let clipped = Option.is_some clip in
    let lo, hi = Option.value clip ~default:(0, max_int) in
    let buf = Domain.DLS.get scratch in
    Buffer.clear buf;
    let emit c kind ~structure_id ~slot ~domain ~value =
      let cycle = Log.Cursor.cycle c in
      if cycle <= hi && (cycle >= lo || kind = Ctx_switch) then
        encode buf ~kind ~cycle ~structure_id ~slot ~domain ~value
    in
    let domain c = domain_of_ctx (Log.Cursor.ctx c) in
    Log.iter_waves log (fun c ->
        if Log.Cursor.is_wave c then begin
          let start = Buffer.length buf in
          Log.Cursor.copy_wave buf c;
          if clipped then
            let event = Buffer.sub buf start (Buffer.length buf - start) in
            let cycle, _ = read_varint event 1 in
            if cycle < lo || cycle > hi then Buffer.truncate buf start
        end
        else
          match Log.Cursor.kind c with
          | Log.Snapshot_kind ->
            emit c Residue ~structure_id:(Log.Cursor.structure_code c) ~slot:0
              ~domain:(domain c)
              ~value:(1 + Log.Cursor.entries c)
          | Log.Mode_switch_kind ->
            emit c Ctx_switch ~structure_id:no_structure ~slot:0
              ~domain:(domain_of_ctx (Log.Cursor.from_ctx c))
              ~value:(domain_of_ctx (Log.Cursor.to_ctx c))
          | Log.Write_kind when fills_itself c ->
            emit c Fill ~structure_id:(Log.Cursor.structure_code c)
              ~slot:(Log.Cursor.slot c 0) ~domain:(domain c) ~value:0
          | _ -> ());
    Buffer.contents buf
  end

(* {2 Stream framing} *)

(* The one frame writer: [add_bytes b off len] and [add_string s]
   receive the frame's bytes in order. *)
let write_frame ~add_bytes ~add_string (name, payload) =
  let len = Bytes.create 9 in
  add_bytes len 0 (put_varint len 0 (String.length name));
  add_string name;
  add_bytes len 0 (put_varint len 0 (String.length payload));
  add_string payload

let frame_streams streams =
  let buf = Buffer.create 4096 in
  List.iter
    (write_frame ~add_bytes:(Buffer.add_subbytes buf) ~add_string:(Buffer.add_string buf))
    streams;
  Buffer.contents buf

let output_frames oc streams =
  List.iter (write_frame ~add_bytes:(output oc) ~add_string:(output_string oc)) streams

let unframe src =
  let len = String.length src in
  let read_str pos =
    let n, pos = read_varint src pos in
    if n > len - pos then raise (Malformed "truncated frame");
    (String.sub src pos n, pos + n)
  in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      let name, pos = read_str pos in
      let payload, pos = read_str pos in
      go pos ((name, payload) :: acc)
  in
  try Ok (go 0 []) with Malformed msg -> Error msg
