open! Import

type owner = Enclave_owner of int | Sm_owner | Host_owner

let owner_to_string = function
  | Enclave_owner i -> Printf.sprintf "enclave-%d" i
  | Sm_owner -> "security-monitor"
  | Host_owner -> "host"

let authorized owner (ctx : Exec_context.t) =
  match (owner, ctx) with
  | _, Exec_context.Monitor -> true
  | Enclave_owner i, Exec_context.Enclave j -> i = j
  | Enclave_owner _, Exec_context.Host _ -> false
  | Sm_owner, (Exec_context.Host _ | Exec_context.Enclave _) -> false
  | Host_owner, Exec_context.Host _ -> true
  | Host_owner, Exec_context.Enclave _ -> false

type seeded = { value : Word.t; addr : Word.t; owner : owner; derived : bool }

let pp_seeded fmt s =
  Format.fprintf fmt "%a @ %a (%s)" Word.pp s.value Word.pp s.addr
    (owner_to_string s.owner)

let value_for ~seed ~addr =
  let v = Word.splitmix64 (Int64.logxor (Word.splitmix64 seed) addr) in
  if Int64.equal v 0L then 1L else v

(* [by_value] indexes the newest registration of each value, so
   [find_by_value] stays O(1) as campaigns seed thousands of secrets.
   [n] caches the list length for the same reason. *)
type tracker = {
  mutable seeded : seeded list;
  mutable n : int;
  by_value : (Word.t, seeded) Hashtbl.t;
}

let create_tracker () = { seeded = []; n = 0; by_value = Hashtbl.create 64 }

(* Seeded records and the list spine are immutable, so a capture shares
   the list and keeps no index: [restore_tracker] rebuilds it. *)
type capture = { c_seeded : seeded list; c_n : int }

let capture_tracker t = { c_seeded = t.seeded; c_n = t.n }

let restore_tracker c ~into =
  into.seeded <- c.c_seeded;
  into.n <- c.c_n;
  Hashtbl.reset into.by_value;
  (* Newest first: a value's newest registration is indexed, older ones
     are skipped. *)
  List.iter
    (fun s -> if not (Hashtbl.mem into.by_value s.value) then Hashtbl.add into.by_value s.value s)
    c.c_seeded

let add t s =
  t.seeded <- s :: t.seeded;
  t.n <- t.n + 1;
  (* Newest registration wins, matching a head-first scan of [seeded]. *)
  Hashtbl.replace t.by_value s.value s

let register t ~seed ~addr ~owner =
  let value = value_for ~seed ~addr in
  add t { value; addr; owner; derived = false };
  value

let register_line t ~seed ~line_addr ~owner =
  let base = Word.align_down line_addr ~alignment:Memory.line_bytes in
  List.init (Memory.line_bytes / 8) (fun i ->
      let addr = Int64.add base (Int64.of_int (i * 8)) in
      let value = register t ~seed ~addr ~owner in
      { value; addr; owner; derived = false })

let register_value t ~value ~addr ~owner =
  if not (Int64.equal value 0L) then
    add t { value; addr; owner; derived = true }

let all t = List.rev t.seeded

let find_by_value t v = Hashtbl.find_opt t.by_value v

let count t = t.n
