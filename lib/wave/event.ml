(* The wave event vocabulary and its compact binary codec.

   A wave stream is a flat byte sequence of cycle-stamped
   microarchitectural events, one per structure operation, written by
   {!Tap} while the machine runs and decoded here for the query engine
   and the VCD exporter.  The encoding is append-only and
   self-delimiting: a fixed kind byte, then LEB128 varints for the
   numeric fields.  Determinism matters more than density — the same
   run must produce the same bytes — so nothing here reads a clock or
   hashes an address. *)

module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context
module Priv = Riscv.Priv

type kind =
  | Fill  (** An entry was written (refill, push, update, write-back). *)
  | Evict  (** An entry left the structure (eviction, drain). *)
  | Flush  (** The whole structure was flushed or reset. *)
  | Hit  (** A lookup was served from the structure. *)
  | Residue  (** Context-switch residue snapshot: occupancy survives. *)
  | Pmp_check  (** A PMP permission check; [value] is 1 on grant. *)
  | Ctx_switch  (** Security-domain switch; [value] is the new domain. *)

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
  slot : int;  (** Entry index inside the structure; 0 when unknown. *)
  domain : int;  (** Security-domain tag of the executing context. *)
  value : int;
      (** For structure events: occupancy-after-the-operation plus one
          where cheap to read, 0 when unknown.  The grant bit for
          {!Pmp_check}; the destination domain for {!Ctx_switch}. *)
}

let pp ppf e =
  Format.fprintf ppf "@[cycle %d: %s %s slot=%d domain=%s value=%d@]" e.cycle
    (kind_to_string e.kind)
    (match e.structure with Some s -> Structure.to_string s | None -> "-")
    e.slot
    (domain_to_string e.domain)
    e.value

(* {2 Binary codec} *)

let add_varint buf n =
  assert (n >= 0);
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* [encode] is the single writer the tap funnels through: all-required
   arguments so a disabled tap never allocates an option on the hot
   path. *)
let encode buf ~kind ~cycle ~structure_id ~slot ~domain ~value =
  Buffer.add_char buf (Char.chr (kind_to_int kind));
  add_varint buf cycle;
  Buffer.add_char buf (Char.chr (structure_id land 0xff));
  add_varint buf slot;
  add_varint buf domain;
  add_varint buf value

exception Malformed of string

(* [add_varint] writes a non-negative int (62 value bits) in at most
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

(* Decode a whole stream; corrupt input is an [Error]. *)
let decode src =
  let len = String.length src in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      let e, pos = decode_one src pos in
      go pos (e :: acc)
  in
  try Ok (go 0 []) with Malformed msg -> Error msg

(* {2 Stream framing}

   A shard or a campaign produces one stream per test case; the framed
   form concatenates them as [varint name-length][name][varint
   payload-length][payload] so they survive transport as one blob (the
   serve wire protocol forwards exactly these bytes). *)

let frame buf ~name payload =
  add_varint buf (String.length name);
  Buffer.add_string buf name;
  add_varint buf (String.length payload);
  Buffer.add_string buf payload

let frame_streams streams =
  let buf = Buffer.create 4096 in
  List.iter (fun (name, payload) -> frame buf ~name payload) streams;
  Buffer.contents buf

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
