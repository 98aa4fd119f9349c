type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type value = String of string | Int of int | Float of float | Bool of bool

type sink = {
  threshold : level;
  deterministic : bool;
  clock : Clock.t;
  pid : int;
  mutex : Mutex.t;
  writer : string -> unit;
  close_fn : unit -> unit;
}

type t = Null | Sink of sink

let null = Null

let make ?(level = Info) ?(deterministic = false) ?clock ~writer
    ~close_fn () =
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  Sink
    {
      threshold = level;
      deterministic;
      clock;
      pid = Unix.getpid ();
      mutex = Mutex.create ();
      writer;
      close_fn;
    }

let create ?level ?deterministic ?clock ~writer () =
  make ?level ?deterministic ?clock ~writer ~close_fn:ignore ()

let open_file ?level ?deterministic ?clock path =
  let oc = open_out path in
  make ?level ?deterministic ?clock
    ~writer:(fun line ->
      output_string oc line;
      flush oc)
    ~close_fn:(fun () -> close_out oc)
    ()

let close = function Null -> () | Sink s -> s.close_fn ()

let enabled t level =
  match t with
  | Null -> false
  | Sink s -> level_rank level >= level_rank s.threshold

let value_to_json = function
  | String s -> Json.Str s
  | Int i -> Json.int i
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

(* Below-threshold levels and [null] cost one branch. *)
let event t level ~event fields =
  match t with
  | Null -> ()
  | Sink s when level_rank level < level_rank s.threshold -> ()
  | Sink s ->
    (* The monotonic stamp and pid are exactly the fields that vary
       between runs; deterministic mode drops both so test suites can
       compare log bytes directly. *)
    let stamp =
      if s.deterministic then []
      else
        [
          ("ts", Json.Num (Int64.to_float (s.clock ())));
          ("pid", Json.int s.pid);
        ]
    in
    let line =
      Json.to_line
        (Json.Obj
           ((("level", Json.Str (level_to_string level)) :: stamp)
           @ (("event", Json.Str event)
             :: List.map (fun (k, v) -> (k, value_to_json v)) fields)))
      ^ "\n"
    in
    Mutex.lock s.mutex;
    (try s.writer line with exn -> Mutex.unlock s.mutex; raise exn);
    Mutex.unlock s.mutex

let debug t ~event:e fields = event t Debug ~event:e fields
let info t ~event:e fields = event t Info ~event:e fields
let warn t ~event:e fields = event t Warn ~event:e fields
let error t ~event:e fields = event t Error ~event:e fields
