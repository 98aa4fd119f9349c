open! Import

type ctx_class = Host_user | Host_supervisor | Host_machine | Enclave | Monitor

let ctx_class = function
  | Exec_context.Host Priv.User -> Host_user
  | Exec_context.Host Priv.Supervisor -> Host_supervisor
  | Exec_context.Host Priv.Machine -> Host_machine
  | Exec_context.Enclave _ -> Enclave
  | Exec_context.Monitor -> Monitor

let all_ctx_classes = [ Host_user; Host_supervisor; Host_machine; Enclave; Monitor ]

let ctx_class_to_string = function
  | Host_user -> "host-U"
  | Host_supervisor -> "host-S"
  | Host_machine -> "host-M"
  | Enclave -> "enclave"
  | Monitor -> "monitor"

let class_index = function
  | Host_user -> 0
  | Host_supervisor -> 1
  | Host_machine -> 2
  | Enclave -> 3
  | Monitor -> 4

let n_classes = List.length all_ctx_classes
let n_origins = Log.origin_count
let n_structures = Structure.count
let structure_index = Structure.to_code
let origin_index = Log.origin_to_code

type t = {
  structure : Structure.t;
  origin : Log.origin;
  from_class : ctx_class;
  to_class : ctx_class;
}

let to_string t =
  Printf.sprintf "%s<-%s[%s->%s]"
    (Structure.to_string t.structure)
    (Log.origin_to_string t.origin)
    (ctx_class_to_string t.from_class)
    (ctx_class_to_string t.to_class)

let count = n_structures * n_origins * n_classes * n_classes

let index_of ~structure ~origin ~from_class ~to_class =
  ((((structure * n_origins) + origin) * n_classes) + class_index from_class)
  * n_classes
  + class_index to_class

let index t =
  index_of ~structure:(structure_index t.structure) ~origin:(origin_index t.origin)
    ~from_class:t.from_class ~to_class:t.to_class

let of_index i =
  if i < 0 || i >= count then invalid_arg "Edge.of_index";
  let to_c = i mod n_classes in
  let i = i / n_classes in
  let from_c = i mod n_classes in
  let i = i / n_classes in
  let origin = i mod n_origins in
  let structure = i / n_origins in
  {
    structure = List.nth Structure.all structure;
    origin = List.nth Log.all_origins origin;
    from_class = List.nth all_ctx_classes from_c;
    to_class = List.nth all_ctx_classes to_c;
  }

(* The walk's state after a prefix of a log.  [counts] is never written
   once the walk is returned, so a base walk can be continued any number
   of times. *)
type walk = { counts : int array; order : int list; from_class : ctx_class option }

(* The transition state starts as a self-loop on the writing context (a
   log with no mode switch yet has performed none). *)
let start = { counts = Array.make count 0; order = []; from_class = None }

(* The one classifier: continues [w] over the records [iter] visits. *)
let advance w iter =
  let counts = Array.copy w.counts in
  let order = ref w.order and from_class = ref w.from_class in
  iter (fun c ->
      match Log.Cursor.kind c with
      | Log.Mode_switch_kind -> from_class := Some (ctx_class (Log.Cursor.from_ctx c))
      | Log.Write_kind ->
        let to_class = ctx_class (Log.Cursor.ctx c) in
        let i =
          index_of
            ~structure:(structure_index (Log.Cursor.structure c))
            ~origin:(origin_index (Log.Cursor.origin c))
            ~from_class:(Option.value !from_class ~default:to_class)
            ~to_class
        in
        if counts.(i) = 0 then order := i :: !order;
        counts.(i) <- counts.(i) + 1
      | Log.Snapshot_kind | Log.Commit_kind | Log.Exception_kind | Log.Fault_kind -> ());
  { counts; order = !order; from_class = !from_class }

let walk log = advance start (Log.iter log)
let continue w log ~since = advance w (Log.iter_since log since)
let edges w = List.rev_map (fun i -> (of_index i, w.counts.(i))) w.order
let of_log log = edges (walk log)
