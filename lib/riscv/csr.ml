type id =
  | Cycle
  | Instret
  | Hpmcounter of int
  | Mcycle
  | Minstret
  | Mhpmcounter of int
  | Mstatus
  | Mtvec
  | Mepc
  | Mcause
  | Mtval
  | Mscratch
  | Stvec
  | Sepc
  | Scause
  | Stval
  | Satp
  | Mcounteren
  | Scounteren
  | Pmpcfg of int
  | Pmpaddr of int
  | Mhartid

(* Indexed names are formatted once: a residue snapshot names eight
   counters per context switch. *)
let indexed_name prefix =
  let names = Array.init 32 (Printf.sprintf "%s%d" prefix) in
  fun n -> if n >= 0 && n < 32 then names.(n) else Printf.sprintf "%s%d" prefix n

let hpmcounter_name = indexed_name "hpmcounter"
let mhpmcounter_name = indexed_name "mhpmcounter"
let pmpcfg_name = indexed_name "pmpcfg"
let pmpaddr_name = indexed_name "pmpaddr"

let name = function
  | Cycle -> "cycle"
  | Instret -> "instret"
  | Hpmcounter n -> hpmcounter_name n
  | Mcycle -> "mcycle"
  | Minstret -> "minstret"
  | Mhpmcounter n -> mhpmcounter_name n
  | Mstatus -> "mstatus"
  | Mtvec -> "mtvec"
  | Mepc -> "mepc"
  | Mcause -> "mcause"
  | Mtval -> "mtval"
  | Mscratch -> "mscratch"
  | Stvec -> "stvec"
  | Sepc -> "sepc"
  | Scause -> "scause"
  | Stval -> "stval"
  | Satp -> "satp"
  | Mcounteren -> "mcounteren"
  | Scounteren -> "scounteren"
  | Pmpcfg n -> pmpcfg_name n
  | Pmpaddr n -> pmpaddr_name n
  | Mhartid -> "mhartid"

let required_priv = function
  | Cycle | Instret | Hpmcounter _ -> Priv.User
  | Stvec | Sepc | Scause | Stval | Satp | Scounteren -> Priv.Supervisor
  | Mcycle | Minstret | Mhpmcounter _ | Mstatus | Mtvec | Mepc | Mcause
  | Mtval | Mscratch | Mcounteren | Pmpcfg _ | Pmpaddr _ | Mhartid ->
    Priv.Machine

(* Architectural CSR numbers from the privileged specification. *)
let address = function
  | Cycle -> 0xC00
  | Instret -> 0xC02
  | Hpmcounter n -> 0xC00 + n
  | Mcycle -> 0xB00
  | Minstret -> 0xB02
  | Mhpmcounter n -> 0xB00 + n
  | Mstatus -> 0x300
  | Mtvec -> 0x305
  | Mepc -> 0x341
  | Mcause -> 0x342
  | Mtval -> 0x343
  | Mscratch -> 0x340
  | Stvec -> 0x105
  | Sepc -> 0x141
  | Scause -> 0x142
  | Stval -> 0x143
  | Satp -> 0x180
  | Mcounteren -> 0x306
  | Scounteren -> 0x106
  | Pmpcfg n -> 0x3A0 + n
  | Pmpaddr n -> 0x3B0 + n
  | Mhartid -> 0xF14

let of_address n =
  match n with
  | 0xC00 -> Some Cycle
  | 0xC02 -> Some Instret
  | _ when n > 0xC02 && n <= 0xC1F -> Some (Hpmcounter (n - 0xC00))
  | 0xB00 -> Some Mcycle
  | 0xB02 -> Some Minstret
  | _ when n > 0xB02 && n <= 0xB1F -> Some (Mhpmcounter (n - 0xB00))
  | 0x300 -> Some Mstatus
  | 0x305 -> Some Mtvec
  | 0x341 -> Some Mepc
  | 0x342 -> Some Mcause
  | 0x343 -> Some Mtval
  | 0x340 -> Some Mscratch
  | 0x105 -> Some Stvec
  | 0x141 -> Some Sepc
  | 0x142 -> Some Scause
  | 0x143 -> Some Stval
  | 0x180 -> Some Satp
  | 0x306 -> Some Mcounteren
  | 0x106 -> Some Scounteren
  | _ when n >= 0x3A0 && n <= 0x3A3 -> Some (Pmpcfg (n - 0x3A0))
  | _ when n >= 0x3B0 && n <= 0x3BF -> Some (Pmpaddr (n - 0x3B0))
  | 0xF14 -> Some Mhartid
  | _ -> None

let is_counter = function Cycle | Instret | Hpmcounter _ -> true | _ -> false

let counter_index = function
  | Cycle -> Some 0
  | Instret -> Some 2
  | Hpmcounter n -> Some n
  | _ -> None

(* The user counter views alias the machine counters. *)
let canonical = function
  | Cycle -> Mcycle
  | Instret -> Minstret
  | Hpmcounter n -> Mhpmcounter n
  | id -> id

(* The counters the pipeline bumps every cycle — mcycle (slot 0),
   minstret (slot 2) and mhpmcounter3..31 (slots 3..31) — live unboxed
   in [counters]; every other CSR (including out-of-range counter
   indices) lives in [others].  A CSR never written reads as 0. *)
type t = { counters : Bytes.t; others : (id, Word.t) Hashtbl.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let counter_slots = 32

(* The slot of counter [n], or -1 when it lives in [others]. *)
let slot_of_index n = if n = 0 || n = 2 || (n >= 3 && n < counter_slots) then n else -1

let slot = function
  | Mcycle -> 0
  | Minstret -> 2
  | Mhpmcounter n -> if n >= 3 && n < counter_slots then n else -1
  | _ -> -1

let modelled_counters = [ 0; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let create () =
  let t = { counters = Bytes.make (8 * counter_slots) '\000'; others = Hashtbl.create 64 } in
  (* By default no user-level counter access: the host OS must opt in,
     which riscv-pk does for cycle/instret/hpmcounters. *)
  Hashtbl.replace t.others Mcounteren (Word.mask 32);
  Hashtbl.replace t.others Scounteren (Word.mask 32);
  t

let counter_file t = t.counters
let copy t = { counters = Bytes.copy t.counters; others = Hashtbl.copy t.others }

let restore_into src ~into =
  Bytes.blit src.counters 0 into.counters 0 (8 * counter_slots);
  Hashtbl.reset into.others;
  Hashtbl.iter (fun id v -> Hashtbl.replace into.others id v) src.others

let raw_read t id =
  let id = canonical id in
  let s = slot id in
  if s >= 0 then get64 t.counters (8 * s)
  else Option.value (Hashtbl.find_opt t.others id) ~default:0L

let raw_write t id v =
  let id = canonical id in
  let s = slot id in
  if s >= 0 then set64 t.counters (8 * s) v else Hashtbl.replace t.others id v

type access_result = Ok of Word.t | Illegal_instruction

let counter_enabled t ~priv id =
  match counter_index id with
  | None -> true
  | Some bit ->
    let gate = function
      | reg -> Int64.logand (Int64.shift_right_logical (raw_read t reg) bit) 1L = 1L
    in
    (match priv with
    | Priv.Machine -> true
    | Priv.Supervisor -> gate Mcounteren
    | Priv.User -> gate Mcounteren && gate Scounteren)

let read t ~priv id =
  if Priv.geq priv (required_priv id) && counter_enabled t ~priv id then
    Ok (raw_read t id)
  else Illegal_instruction

let write t ~priv id v =
  if is_counter id then Error ()
  else if Priv.geq priv (required_priv id) then begin
    raw_write t id v;
    Result.Ok ()
  end
  else Error ()

let counter_id n =
  match n with 0 -> Mcycle | 2 -> Minstret | n -> Mhpmcounter n

let bump_counter t n ~by =
  let s = slot_of_index n in
  if s >= 0 then set64 t.counters (8 * s) (Int64.add (get64 t.counters (8 * s)) (Int64.of_int by))
  else
    let id = counter_id n in
    raw_write t id (Int64.add (raw_read t id) (Int64.of_int by))

let reset_counters t = List.iter (fun n -> raw_write t (counter_id n) 0L) modelled_counters
