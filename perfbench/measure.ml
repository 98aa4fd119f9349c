(* Clocks, order statistics, process memory, span accounting and JSON
   output shared by every workload of the benchmark. *)

let now = Unix.gettimeofday

(* {1 Order statistics} *)

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let sorted samples = Array.of_list (List.sort Float.compare samples)

let median_of_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the spreads this program
   reports are the ones a reader recomputes from the raw values. *)
let quartile a i =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.

let summarize samples =
  match samples with
  | [] -> invalid_arg "Measure.summarize: no samples"
  | _ ->
    let a = sorted samples in
    {
      median = median_of_sorted a;
      q1 = quartile a 1;
      q3 = quartile a 3;
      min = a.(0);
      max = a.(Array.length a - 1);
      n = Array.length a;
    }

let median samples = (summarize samples).median
let lower_quartile samples = (summarize samples).q1

(* {1 Process memory} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size (VmHWM) of a live process, in KiB; 0 when the
   process is gone. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match read_file path with
  | exception Sys_error _ -> 0
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0

(* Direct children of a single-threaded process. *)
let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* {1 Span accounting} *)

(* Self time in nanoseconds per span name: a span's duration minus the
   part its nested layer spans cover.  Spans whose name is not a layer
   (the library's own [pool/task], for instance) are transparent — their time stays with the nearest enclosing layer — so
   the layer self times of one root span sum exactly to its duration. *)
let self_times ~is_layer (events : Obs.Tracer.event list) =
  let totals = Hashtbl.create 32 in
  let add name ns =
    Hashtbl.replace totals name
      (Int64.add ns (Option.value (Hashtbl.find_opt totals name) ~default:0L))
  in
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Tracer.event) ->
      match e.Obs.Tracer.ph with
      | Obs.Tracer.Begin -> stack := (e.Obs.Tracer.name, e.Obs.Tracer.ts, ref 0L) :: !stack
      | Obs.Tracer.End -> (
        match !stack with
        | [] -> ()
        | (name, start, covered) :: rest ->
          stack := rest;
          let passed_up =
            if is_layer name then begin
              let duration = Int64.sub e.Obs.Tracer.ts start in
              add name (Int64.sub duration !covered);
              duration
            end
            else !covered
          in
          (match rest with
          | (_, _, parent) :: _ -> parent := Int64.add !parent passed_up
          | [] -> ()))
      | Obs.Tracer.Instant | Obs.Tracer.Metadata -> ())
    events;
  totals

(* {1 JSON output} *)

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string (v : Obs.Json.t) =
  match v with
  | Obs.Json.Null -> "null"
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Num f -> if Float.is_finite f then json_number f else "null"
  | Obs.Json.Str s -> json_string s
  | Obs.Json.Arr l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obs.Json.Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) fields)
    ^ "}"
