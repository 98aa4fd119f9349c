type arg = String of string | Int of int | Float of float | Bool of bool

type phase = Begin | End | Instant | Metadata

type event = {
  ph : phase;
  name : string;
  ts : int64;  (* ns *)
  tid : int;
  args : (string * arg) list;
}

type dbuf = {
  tid : int;
  mutable rev_events : event list;
  mutable stack : string list;  (* open span names, innermost first *)
}

type t = {
  clock : Clock.t;
  mutex : Mutex.t;
  bufs : (int, dbuf) Hashtbl.t;
  mutable tid_order : int list;  (* first-seen order, reversed *)
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  { clock; mutex = Mutex.create (); bufs = Hashtbl.create 8; tid_order = [] }

(* Callers hold [t.mutex]. *)
let buf_for t =
  let tid = (Domain.self () :> int) in
  match Hashtbl.find_opt t.bufs tid with
  | Some b -> b
  | None ->
    let b = { tid; rev_events = []; stack = [] } in
    Hashtbl.add t.bufs tid b;
    t.tid_order <- tid :: t.tid_order;
    b

let record t ph ?(args = []) name =
  let ts = t.clock () in
  Mutex.lock t.mutex;
  let b = buf_for t in
  (match ph with
  | Begin -> b.stack <- name :: b.stack
  | End -> (
    match b.stack with
    | top :: rest when top = name -> b.stack <- rest
    | top :: _ ->
      Mutex.unlock t.mutex;
      invalid_arg
        (Printf.sprintf "Tracer.end_span: %S does not match open span %S" name
           top)
    | [] ->
      Mutex.unlock t.mutex;
      invalid_arg (Printf.sprintf "Tracer.end_span: no open span for %S" name))
  | Instant | Metadata -> ());
  b.rev_events <- { ph; name; ts; tid = b.tid; args } :: b.rev_events;
  Mutex.unlock t.mutex

let begin_span t ?args name = record t Begin ?args name
let end_span t name = record t End name
let instant t ?args name = record t Instant ?args name

let span t ?args name f =
  begin_span t ?args name;
  Fun.protect ~finally:(fun () -> end_span t name) f

let name_thread t name =
  record t Metadata ~args:[ ("name", String name) ] "thread_name"

let unclosed t =
  Mutex.lock t.mutex;
  let names =
    List.concat_map
      (fun tid -> (Hashtbl.find t.bufs tid).stack)
      (List.rev t.tid_order)
  in
  Mutex.unlock t.mutex;
  names

(* Stable by timestamp: per-domain begin/end order survives among equal
   stamps (the fake test clock never repeats, the wall clock rarely
   does). *)
let sort_events events =
  List.stable_sort (fun a b -> Int64.compare a.ts b.ts) events

(* Callers hold [t.mutex]. *)
let collect t =
  List.concat_map
    (fun tid -> List.rev (Hashtbl.find t.bufs tid).rev_events)
    (List.rev t.tid_order)

let events t =
  Mutex.lock t.mutex;
  let events = collect t in
  Mutex.unlock t.mutex;
  sort_events events

let drain t =
  Mutex.lock t.mutex;
  let events = collect t in
  Hashtbl.iter (fun _ b -> b.rev_events <- []) t.bufs;
  Mutex.unlock t.mutex;
  sort_events events

let shift_events offset events =
  List.map (fun e -> { e with ts = Int64.add e.ts offset }) events

(* {2 Chrome trace-event JSON} *)

let arg_to_json = function
  | String s -> Json.Str s
  | Int i -> Json.int i
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

let event_to_json ~pid e =
  let ts = ("ts", Json.Num (Int64.to_float e.ts /. 1e3)) in
  let phase, scope =
    match e.ph with
    | Metadata -> ([ ("ph", Json.Str "M") ], [])
    | Begin -> ([ ("ph", Json.Str "B"); ts ], [])
    | End -> ([ ("ph", Json.Str "E"); ts ], [])
    | Instant -> ([ ("ph", Json.Str "i"); ts ], [ ("s", Json.Str "t") ])
  in
  let args =
    if e.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, a) -> (k, arg_to_json a)) e.args)) ]
  in
  Json.Obj
    ((("name", Json.Str e.name) :: phase)
    @ (("pid", Json.int pid) :: ("tid", Json.int e.tid) :: scope)
    @ args)

let render_trace pid_events =
  Json.to_document
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ( "traceEvents",
           Json.list (fun (pid, e) -> event_to_json ~pid e) pid_events );
       ])

let to_chrome_json t =
  render_trace (List.map (fun e -> (1, e)) (events t))

(* The merged-trace assembler the daemon uses: one process group per
   worker pid (plus the daemon's own), named via [process_name]
   metadata, all events interleaved on one timeline.  Events must
   already be aligned to a common clock; sorting is global, so spans of
   different pids order correctly against each other. *)
let chrome_json_of_processes processes =
  let metadata =
    List.map
      (fun (pid, name, _) ->
        ( pid,
          {
            ph = Metadata;
            name = "process_name";
            ts = 0L;
            tid = 0;
            args = [ ("name", String name) ];
          } ))
      processes
  in
  let tagged =
    List.concat_map
      (fun (pid, _, events) -> List.map (fun e -> (pid, e)) events)
      processes
  in
  let tagged =
    List.stable_sort (fun (_, a) (_, b) -> Int64.compare a.ts b.ts) tagged
  in
  render_trace (metadata @ tagged)
