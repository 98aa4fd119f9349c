open! Import

type origin =
  | Explicit_load
  | Explicit_store
  | Prefetch
  | Ptw_walk
  | Store_drain
  | Memset_destroy
  | Csr_read
  | Context_save
  | Refill
  | Branch_exec
  | Writeback
  | Fault_inject

let origin_to_string = function
  | Explicit_load -> "explicit-load"
  | Explicit_store -> "explicit-store"
  | Prefetch -> "prefetch"
  | Ptw_walk -> "ptw-walk"
  | Store_drain -> "store-drain"
  | Memset_destroy -> "memset-destroy"
  | Csr_read -> "csr-read"
  | Context_save -> "context-save"
  | Refill -> "refill"
  | Branch_exec -> "branch-exec"
  | Writeback -> "writeback"
  | Fault_inject -> "fault-inject"

let all_origins =
  [
    Explicit_load; Explicit_store; Prefetch; Ptw_walk; Store_drain;
    Memset_destroy; Csr_read; Context_save; Refill; Branch_exec; Writeback;
    Fault_inject;
  ]

let origin_of_string s = List.find_opt (fun o -> origin_to_string o = s) all_origins

let origin_to_code = function
  | Explicit_load -> 0
  | Explicit_store -> 1
  | Prefetch -> 2
  | Ptw_walk -> 3
  | Store_drain -> 4
  | Memset_destroy -> 5
  | Csr_read -> 6
  | Context_save -> 7
  | Refill -> 8
  | Branch_exec -> 9
  | Writeback -> 10
  | Fault_inject -> 11

let origin_of_code = function
  | 0 -> Explicit_load
  | 1 -> Explicit_store
  | 2 -> Prefetch
  | 3 -> Ptw_walk
  | 4 -> Store_drain
  | 5 -> Memset_destroy
  | 6 -> Csr_read
  | 7 -> Context_save
  | 8 -> Refill
  | 9 -> Branch_exec
  | 10 -> Writeback
  | 11 -> Fault_inject
  | c -> invalid_arg (Printf.sprintf "Log.origin_of_code %d" c)

let origin_count = 12

type entry = { slot : int; addr : Word.t option; data : Word.t; note : string }

let entry ?(slot = 0) ?addr ?(note = "") data = { slot; addr; data; note }

type event =
  | Write of { structure : Structure.t; entries : entry list; origin : origin }
  | Snapshot of { structure : Structure.t; entries : entry list }
  | Mode_switch of { from_ctx : Exec_context.t; to_ctx : Exec_context.t }
  | Commit of { pc : Word.t; instr : string }
  | Exception_raised of { cause : string; pc : Word.t }
  | Fault_injected of { structure : Structure.t option; detail : string }

type record = { cycle : int; ctx : Exec_context.t; event : event }

type kind =
  | Write_kind
  | Snapshot_kind
  | Mode_switch_kind
  | Commit_kind
  | Exception_kind
  | Fault_kind

let kind_to_code = function
  | Write_kind -> 0
  | Snapshot_kind -> 1
  | Mode_switch_kind -> 2
  | Commit_kind -> 3
  | Exception_kind -> 4
  | Fault_kind -> 5

let kind_of_code = function
  | 0 -> Write_kind
  | 1 -> Snapshot_kind
  | 2 -> Mode_switch_kind
  | 3 -> Commit_kind
  | 4 -> Exception_kind
  | 5 -> Fault_kind
  | c -> invalid_arg (Printf.sprintf "Log: corrupt record kind %d" c)

(* {1 Encoding}

   Records are appended to [buf] back to back.  Every field has a fixed
   width and offset; integers are stored in native byte order (a log
   never leaves the process as bytes — {!Serialize} is its interchange
   format).

   Header, [header_bytes] = 24:
   {v
   +0   u8   kind code (kind_to_code)
   +1   u8   context tag (ctx_tag)
   +2   u8   structure code (Structure.to_code; 0xff: none)
   +3   u8   origin code (origin_to_code; Write only)
   +4   i32  entry count (Write, Snapshot) or string (Commit, Exception, Fault)
   +8   i64  cycle
   +16  i64  context enclave id (0 unless Enclave)
   v}
   Body:
   {v
   Write, Snapshot    count entries of [entry_bytes] = 32:
                        +0 i64 slot   +8 i64 address   +16 i64 data
                        +24 i32 note string   +28 i32 1 when the address is present
   Commit, Exception  +0 i64 pc
   Mode_switch        +0 u8 from tag   +1 u8 to tag   +8 i64 from id   +16 i64 to id
   Fault              (none)
   v}
   A wave record has no header: [wave_code] (outside {!kind}, so readers
   of simulation records step over it), a u8 length [n], then [n] bytes
   of payload that lib/wave encodes and decodes.
   A string field is 0 for [""], otherwise 1 + the offset, in the log's
   string heap, of an i32 length followed by the bytes.  Consecutive
   equal strings share one copy.

   A log is an immutable prefix — the {!mark} it was last reset to, or
   last marked at — followed by a growable suffix; offsets in the string
   heap count from the start of the prefix's heap.  The prefix's records
   are a chain of immutable segments, one per {!mark} call that found
   records to keep.  Records never straddle two segments, so a cursor
   walks the segments in order, then the suffix.  Restoring a snapshot
   therefore swaps one pointer: a mark's bytes are shared, never copied
   back. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let header_bytes = 24
let entry_bytes = 32
let pc_bytes = 8
let switch_bytes = 24
let wave_code = 6
let no_structure = 0xff

let get_int b off = Int64.to_int (get64 b off)
let set_int b off v = set64 b off (Int64.of_int v)
let get_i32 b off = Int32.to_int (get32 b off)
let set_i32 b off v = set32 b off (Int32.of_int v)

let host_u = Exec_context.Host Priv.User
let host_s = Exec_context.Host Priv.Supervisor
let host_m = Exec_context.Host Priv.Machine

let ctx_tag = function
  | Exec_context.Host Priv.User -> 0
  | Exec_context.Host Priv.Supervisor -> 1
  | Exec_context.Host Priv.Machine -> 2
  | Exec_context.Enclave _ -> 3
  | Exec_context.Monitor -> 4

let ctx_id = function
  | Exec_context.Enclave i -> i
  | Exec_context.Host _ | Exec_context.Monitor -> 0

(* Built once, like [Exec_context]'s names: decoding a context
   allocates nothing for enclave ids below 64. *)
let enclaves = Array.init 64 (fun i -> Exec_context.Enclave i)

let ctx_of ~tag ~id =
  match tag with
  | 0 -> host_u
  | 1 -> host_s
  | 2 -> host_m
  | 3 ->
    if id >= 0 && id < Array.length enclaves then enclaves.(id) else Exec_context.Enclave id
  | 4 -> Exec_context.Monitor
  | c -> invalid_arg (Printf.sprintf "Log: corrupt context tag %d" c)

(* A whole log, frozen: its record segments, oldest first, each an
   exact-size copy of the suffix one {!mark} call saw and never written
   again; their record count; and an exact-size copy of its string
   heap. *)
type mark = { m_segs : Bytes.t array; m_count : int; m_strs : Bytes.t }

let empty_mark = { m_segs = [||]; m_count = 0; m_strs = Bytes.empty }

type t = {
  wave : bool;  (* Keeps wave records. *)
  mutable base : mark;  (* The immutable prefix. *)
  mutable buf : Bytes.t;  (* The suffix: records appended since. *)
  mutable len : int;
  mutable count : int;  (* Simulation records in the suffix. *)
  mutable open_at : int;
      (* Suffix offset of the Write/Snapshot header that [add_*] extends;
         -1 when none is open. *)
  mutable strs : Bytes.t;  (* The suffix of the string heap. *)
  mutable strs_len : int;
  mutable last_string : string;  (* The last string stored, and its field. *)
  mutable last_ref : int;
}

let create ?(wave = false) () =
  {
    wave;
    base = empty_mark;
    buf = Bytes.create 4096;
    len = 0;
    count = 0;
    open_at = -1;
    strs = Bytes.create 1024;
    strs_len = 0;
    last_string = "";
    last_ref = 0;
  }

let length t = t.base.m_count + t.count
let tapped t = t.wave

let grow b used need =
  if need <= Bytes.length b then b
  else begin
    let b' = Bytes.create (max need (2 * Bytes.length b)) in
    Bytes.blit b 0 b' 0 used;
    b'
  end

let reserve t n = t.buf <- grow t.buf t.len (t.len + n)

let intern t s =
  if String.length s = 0 then 0
  else if t.last_ref > 0 && (s == t.last_string || String.equal s t.last_string) then
    t.last_ref
  else begin
    let n = String.length s in
    t.strs <- grow t.strs t.strs_len (t.strs_len + 4 + n);
    set_i32 t.strs t.strs_len n;
    Bytes.blit_string s 0 t.strs (t.strs_len + 4) n;
    let r = Bytes.length t.base.m_strs + t.strs_len + 1 in
    t.strs_len <- t.strs_len + 4 + n;
    t.last_string <- s;
    t.last_ref <- r;
    r
  end

(* The heap segment holding string field [r], and the string's offset
   in it. *)
let string_segment t r =
  let prefix = Bytes.length t.base.m_strs in
  if r - 1 < prefix then t.base.m_strs else t.strs

let string_offset t r =
  let prefix = Bytes.length t.base.m_strs in
  if r - 1 < prefix then r - 1 else r - 1 - prefix

let string_at t r =
  if r = 0 then ""
  else
    let seg = string_segment t r and off = string_offset t r in
    Bytes.sub_string seg (off + 4) (get_i32 seg off)

(* Appends a header and returns its offset. *)
let header t ~kind ~cycle ~ctx ~structure ~origin ~n =
  reserve t header_bytes;
  let b = t.buf and h = t.len in
  Bytes.set_uint8 b h (kind_to_code kind);
  Bytes.set_uint8 b (h + 1) (ctx_tag ctx);
  Bytes.set_uint8 b (h + 2) structure;
  Bytes.set_uint8 b (h + 3) origin;
  set_i32 b (h + 4) n;
  set_int b (h + 8) cycle;
  set_int b (h + 16) (ctx_id ctx);
  t.len <- h + header_bytes;
  t.count <- t.count + 1;
  t.open_at <- -1;
  h

let begin_write t ~cycle ~ctx ~structure ~origin =
  t.open_at <-
    header t ~kind:Write_kind ~cycle ~ctx ~structure:(Structure.to_code structure)
      ~origin:(origin_to_code origin) ~n:0

let begin_snapshot t ~cycle ~ctx ~structure =
  t.open_at <-
    header t ~kind:Snapshot_kind ~cycle ~ctx
      ~structure:(Structure.to_code structure) ~origin:0 ~n:0

(* Appends an entry to the open record and returns its offset.  The
   caller writes the address and data words (at +8 and +16), so a word
   computed or copied in place is never boxed to pass it here. *)
let add_raw t ~slot ~has_addr ~note =
  if t.open_at < 0 then invalid_arg "Log.add_entry: no open Write or Snapshot record";
  let note = intern t note in
  reserve t entry_bytes;
  let b = t.buf and e = t.len in
  set_int b e slot;
  set_i32 b (e + 24) note;
  set_i32 b (e + 28) (if has_addr then 1 else 0);
  t.len <- e + entry_bytes;
  set_i32 b (t.open_at + 4) (get_i32 b (t.open_at + 4) + 1);
  e

let add t ~slot ~has_addr ~addr ~note data =
  let e = add_raw t ~slot ~has_addr ~note in
  set64 t.buf (e + 8) addr;
  set64 t.buf (e + 16) data

let add_entry t ~slot ~note data = add t ~slot ~has_addr:false ~addr:0L ~note data
let add_addr_entry t ~slot ~addr ~note data = add t ~slot ~has_addr:true ~addr ~note data

let add_entry_of_bytes t ~slot ~note src off =
  let e = add_raw t ~slot ~has_addr:false ~note in
  set64 t.buf (e + 8) 0L;
  set64 t.buf (e + 16) (get64 src off)

(* One entry per word, at [addr + 8i]: slot [slot], or [i] when [-1]. *)
let add_run t ~slot ~addr words =
  for i = 0 to Array.length words - 1 do
    let e = add_raw t ~slot:(if slot < 0 then i else slot) ~has_addr:true ~note:"" in
    set64 t.buf (e + 8) (Int64.add addr (Int64.of_int (i * 8)));
    set64 t.buf (e + 16) words.(i)
  done

let add_line t ~slot ~addr words = add_run t ~slot ~addr words
let add_words t ~addr words = add_run t ~slot:(-1) ~addr words

let add_entries t entries =
  List.iter
    (fun e ->
      match e.addr with
      | Some addr -> add_addr_entry t ~slot:e.slot ~addr ~note:e.note e.data
      | None -> add_entry t ~slot:e.slot ~note:e.note e.data)
    entries

let append_pc t pc =
  reserve t pc_bytes;
  set64 t.buf t.len pc;
  t.len <- t.len + pc_bytes

let record t ~cycle ~ctx event =
  match event with
  | Write { structure; entries; origin } ->
    begin_write t ~cycle ~ctx ~structure ~origin;
    add_entries t entries
  | Snapshot { structure; entries } ->
    begin_snapshot t ~cycle ~ctx ~structure;
    add_entries t entries
  | Mode_switch { from_ctx; to_ctx } ->
    ignore
      (header t ~kind:Mode_switch_kind ~cycle ~ctx ~structure:no_structure ~origin:0
         ~n:0);
    reserve t switch_bytes;
    let b = t.buf and p = t.len in
    set_int b p 0;
    Bytes.set_uint8 b p (ctx_tag from_ctx);
    Bytes.set_uint8 b (p + 1) (ctx_tag to_ctx);
    set_int b (p + 8) (ctx_id from_ctx);
    set_int b (p + 16) (ctx_id to_ctx);
    t.len <- p + switch_bytes
  | Commit { pc; instr } ->
    let n = intern t instr in
    ignore (header t ~kind:Commit_kind ~cycle ~ctx ~structure:no_structure ~origin:0 ~n);
    append_pc t pc
  | Exception_raised { cause; pc } ->
    let n = intern t cause in
    ignore
      (header t ~kind:Exception_kind ~cycle ~ctx ~structure:no_structure ~origin:0 ~n);
    append_pc t pc
  | Fault_injected { structure; detail } ->
    let n = intern t detail in
    let structure =
      match structure with Some s -> Structure.to_code s | None -> no_structure
    in
    ignore (header t ~kind:Fault_kind ~cycle ~ctx ~structure ~origin:0 ~n)

(* A wave record is not a simulation record: it leaves [count] alone. *)
let add_wave t payload n =
  if t.wave then begin
    if n > 0xff then invalid_arg "Log.add_wave: payload longer than 255 bytes";
    reserve t (2 + n);
    Bytes.set_uint8 t.buf t.len wave_code;
    Bytes.set_uint8 t.buf (t.len + 1) n;
    Bytes.blit payload 0 t.buf (t.len + 2) n;
    t.len <- t.len + 2 + n;
    t.open_at <- -1
  end

(* {1 Marks}

   A mark holds the log's bytes, not a length: snapshot slots outlive
   unrelated cases run on the same pooled machine, so a saved length
   could keep another prefix's records.  Marking copies the suffix once,
   as a new segment after the prefix's, and adopts the result as the
   new prefix; restoring adopts the mark — in both cases the log's
   contents are unchanged.  A mark shares every segment of the prefix it
   extends, so a snapshot slot costs its own records, not its parent
   cut's again.  Only the string heap is copied whole. *)

(* A mark whose records added no string shares its parent's heap. *)
let append prefix suffix len =
  if len = 0 then prefix
  else begin
    let b = Bytes.create (Bytes.length prefix + len) in
    Bytes.blit prefix 0 b 0 (Bytes.length prefix);
    Bytes.blit suffix 0 b (Bytes.length prefix) len;
    b
  end

let mark t =
  t.open_at <- -1;
  if t.len > 0 then begin
    t.base <-
      {
        m_segs = Array.append t.base.m_segs [| Bytes.sub t.buf 0 t.len |];
        m_count = t.base.m_count + t.count;
        m_strs = append t.base.m_strs t.strs t.strs_len;
      };
    t.len <- 0;
    t.count <- 0;
    t.strs_len <- 0;
    t.last_ref <- 0
  end;
  t.base

let reset_to t m =
  t.base <- m;
  t.len <- 0;
  t.count <- 0;
  t.strs_len <- 0;
  t.open_at <- -1;
  t.last_string <- "";
  t.last_ref <- 0

(* {1 Reading} *)

module Values = struct
  (* Open addressing over raw words: [keys] holds the members, [used]
     marks occupied slots.  Probing reads both sides with the bytes
     primitives, so a membership test on logged data allocates nothing. *)
  type t = { keys : Bytes.t; used : Bytes.t; mask : int }

  let slot_of mask x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land mask

  (* [slot_at v b off]: the slot holding the word at [b.[off]], or -1
     when it is not a member. *)
  let slot_at v b off =
    let x = get64 b off in
    let i = ref (slot_of v.mask (Int64.to_int x)) in
    let result = ref (-2) in
    while !result = -2 do
      if Bytes.get_uint8 v.used !i = 0 then result := -1
      else if get64 v.keys (8 * !i) = x then result := !i
      else i := (!i + 1) land v.mask
    done;
    !result

  let mem_at v b off = slot_at v b off >= 0
  let capacity v = v.mask + 1

  let slot v w =
    let probe = Bytes.create 8 in
    set64 probe 0 w;
    slot_at v probe 0

  let of_list words =
    let n = List.length words in
    let cap = ref 8 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    let v =
      { keys = Bytes.make (8 * !cap) '\000'; used = Bytes.make !cap '\000'; mask = !cap - 1 }
    in
    let probe = Bytes.create 8 in
    List.iter
      (fun w ->
        set64 probe 0 w;
        if not (mem_at v probe 0) then begin
          let i = ref (slot_of v.mask (Int64.to_int w)) in
          while Bytes.get_uint8 v.used !i <> 0 do
            i := (!i + 1) land v.mask
          done;
          Bytes.set_uint8 v.used !i 1;
          set64 v.keys (8 * !i) w
        end)
      words;
    v
end

module Cursor = struct
  type log = t
  (* [seg] is the segment (prefix or suffix bytes) holding the record,
     [at] its offset there. *)
  type nonrec t = { log : log; mutable seg : Bytes.t; mutable at : int; mutable index : int }

  let index c = c.index
  let byte c k = Bytes.get_uint8 c.seg (c.at + k)
  let kind c = kind_of_code (byte c 0)
  let cycle c = get_int c.seg (c.at + 8)
  let ctx_tag c = byte c 1
  let ctx_id c = get_int c.seg (c.at + 16)
  let ctx c = ctx_of ~tag:(ctx_tag c) ~id:(ctx_id c)
  let structure_code c = byte c 2
  let origin_code c = byte c 3

  let structure_opt c =
    let s = byte c 2 in
    if s = no_structure then None else Some (Structure.of_code s)

  let has_entries c = match kind c with Write_kind | Snapshot_kind -> true | _ -> false

  let structure c =
    if not (has_entries c) then invalid_arg "Log.Cursor.structure: not a Write or Snapshot";
    Structure.of_code (byte c 2)

  let origin c =
    if kind c <> Write_kind then invalid_arg "Log.Cursor.origin: not a Write";
    origin_of_code (byte c 3)

  let entries c = if has_entries c then get_i32 c.seg (c.at + 4) else 0

  let entry_at c i =
    if i < 0 || i >= entries c then invalid_arg "Log.Cursor: entry index out of range";
    c.at + header_bytes + (i * entry_bytes)

  let slot c i = get_int c.seg (entry_at c i)
  let data c i = get64 c.seg (entry_at c i + 16)
  let note_ref c i = get_i32 c.seg (entry_at c i + 24)
  let note c i = string_at c.log (note_ref c i)

  let addr c i =
    let e = entry_at c i in
    if get_i32 c.seg (e + 28) = 1 then Some (get64 c.seg (e + 8)) else None

  let entry c i = { slot = slot c i; addr = addr c i; data = data c i; note = note c i }

  let note_contains c i ~needle =
    let r = note_ref c i in
    let n = String.length needle in
    if n = 0 then true
    else if r = 0 then false
    else begin
      let strs = string_segment c.log r and off = string_offset c.log r in
      let start = off + 4 in
      let len = get_i32 strs off in
      let rec at j k = k = n || (Bytes.get strs (start + j + k) = needle.[k] && at j (k + 1)) in
      let rec scan j = j + n <= len && (at j 0 || scan (j + 1)) in
      scan 0
    end

  let find_data c w =
    let b = c.seg and n = entries c in
    let first = c.at + header_bytes + 16 in
    let i = ref 0 in
    while !i < n && get64 b (first + (!i * entry_bytes)) <> w do
      incr i
    done;
    if !i < n then !i else -1

  let next_match c values i =
    let b = c.seg and n = entries c in
    let first = c.at + header_bytes + 16 in
    let i = ref (max i 0) in
    while !i < n && not (Values.mem_at values b (first + (!i * entry_bytes))) do
      incr i
    done;
    if !i < n then !i else -1

  let value_slot c values i = Values.slot_at values c.seg (entry_at c i + 16)

  let pc c =
    match kind c with
    | Commit_kind | Exception_kind -> get64 c.seg (c.at + header_bytes)
    | _ -> invalid_arg "Log.Cursor.pc: not a Commit or Exception_raised"

  let text c =
    match kind c with
    | Commit_kind | Exception_kind | Fault_kind ->
      string_at c.log (get_i32 c.seg (c.at + 4))
    | _ -> invalid_arg "Log.Cursor.text: not a Commit, Exception_raised or Fault_injected"

  let switch_ctx c k =
    if kind c <> Mode_switch_kind then invalid_arg "Log.Cursor: not a Mode_switch";
    let p = c.at + header_bytes in
    ctx_of ~tag:(Bytes.get_uint8 c.seg (p + k)) ~id:(get_int c.seg (p + 8 + (8 * k)))

  let from_ctx c = switch_ctx c 0
  let to_ctx c = switch_ctx c 1
  let is_wave c = byte c 0 = wave_code
  let copy_wave buf c = Buffer.add_subbytes buf c.seg (c.at + 2) (byte c 1)

  let entry_list c = List.init (entries c) (entry c)

  let record c =
    let event =
      match kind c with
      | Write_kind ->
        Write { structure = structure c; entries = entry_list c; origin = origin c }
      | Snapshot_kind -> Snapshot { structure = structure c; entries = entry_list c }
      | Mode_switch_kind -> Mode_switch { from_ctx = from_ctx c; to_ctx = to_ctx c }
      | Commit_kind -> Commit { pc = pc c; instr = text c }
      | Exception_kind -> Exception_raised { cause = text c; pc = pc c }
      | Fault_kind -> Fault_injected { structure = structure_opt c; detail = text c }
    in
    { cycle = cycle c; ctx = ctx c; event }

  (* One test of the raw kind code: the record's size. *)
  let size c =
    match byte c 0 with
    | 0 | 1 -> header_bytes + (get_i32 c.seg (c.at + 4) * entry_bytes)
    | 3 | 4 -> header_bytes + pc_bytes
    | 2 -> header_bytes + switch_bytes
    | 5 -> header_bytes
    | _ (* wave_code *) -> 2 + byte c 1
end

(* Walks the records of [t] from segment [first] of its prefix, calling
   [f] on each simulation record and, when [waves], on each wave record
   too; the cursor index counts simulation records only. *)
let walk t ~waves ~first ~index f =
  let c = { Cursor.log = t; seg = t.buf; at = 0; index } in
  let segment seg len =
    c.Cursor.seg <- seg;
    c.Cursor.at <- 0;
    while c.Cursor.at < len do
      let size = Cursor.size c in
      if not (Cursor.is_wave c) then begin
        f c;
        c.Cursor.index <- c.Cursor.index + 1
      end
      else if waves then f c;
      c.Cursor.at <- c.Cursor.at + size
    done
  in
  let segs = t.base.m_segs in
  for i = first to Array.length segs - 1 do
    segment segs.(i) (Bytes.length segs.(i))
  done;
  segment t.buf t.len

let iter t f = walk t ~waves:false ~first:0 ~index:0 f
let iter_waves t f = walk t ~waves:true ~first:0 ~index:0 f

(* [t]'s prefix extends [m], so its segments begin with [m]'s: the walk
   starts at the first segment after them. *)
let iter_since t m f =
  let first = Array.length m.m_segs in
  if
    m.m_count > t.base.m_count
    || first > Array.length t.base.m_segs
    || (first > 0 && t.base.m_segs.(first - 1) != m.m_segs.(first - 1))
  then invalid_arg "Log.iter_since: the log does not extend the mark";
  walk t ~waves:false ~first ~index:m.m_count f

let note_at = string_at
let context_of_code = ctx_of

let to_list t =
  let acc = ref [] in
  iter t (fun c -> acc := Cursor.record c :: !acc);
  List.rev !acc

let occurrences t v =
  let acc = ref [] in
  iter t (fun c -> if Cursor.find_data c v >= 0 then acc := Cursor.record c :: !acc);
  List.rev !acc

(* The record-order-last commit among those of the largest cycle at or
   before [cycle]. *)
let last_commit_before t ~cycle =
  let best_cycle = ref (-1) and best = ref None in
  iter t (fun c ->
      if Cursor.kind c = Commit_kind then
        let at = Cursor.cycle c in
        if at <= cycle && at >= !best_cycle then begin
          best_cycle := at;
          best := Some (Cursor.pc c)
        end);
  !best

let pp_entry fmt e =
  (match e.addr with
  | Some a -> Format.fprintf fmt "[%d]@%a=%a" e.slot Word.pp a Word.pp e.data
  | None -> Format.fprintf fmt "[%d]=%a" e.slot Word.pp e.data);
  if e.note <> "" then Format.fprintf fmt " (%s)" e.note

let pp_record fmt r =
  Format.fprintf fmt "cycle %6d %-10s " r.cycle (Exec_context.to_string r.ctx);
  match r.event with
  | Write { structure; entries; origin } ->
    Format.fprintf fmt "WRITE %s via %s:" (Structure.to_string structure)
      (origin_to_string origin);
    List.iter (fun e -> Format.fprintf fmt " %a" pp_entry e) entries
  | Snapshot { structure; entries } ->
    Format.fprintf fmt "SNAP  %s (%d entries)" (Structure.to_string structure)
      (List.length entries)
  | Mode_switch { from_ctx; to_ctx } ->
    Format.fprintf fmt "SWITCH %a -> %a" Exec_context.pp from_ctx Exec_context.pp
      to_ctx
  | Commit { pc; instr } -> Format.fprintf fmt "COMMIT %a %s" Word.pp pc instr
  | Exception_raised { cause; pc } ->
    Format.fprintf fmt "EXCPT %s at %a" cause Word.pp pc
  | Fault_injected { structure; detail } ->
    Format.fprintf fmt "FAULT %s: %s"
      (match structure with Some s -> Structure.to_string s | None -> "global")
      detail

let pp fmt t = iter t (fun c -> Format.fprintf fmt "%a@." pp_record (Cursor.record c))
