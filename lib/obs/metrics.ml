type hist = {
  bounds : float array;  (* finite upper bounds, strictly ascending *)
  counts : int array;  (* per-bucket, non-cumulative; last = overflow *)
  mutable sum : float;
  mutable total : int;
}

type state =
  | Counter_state of { mutable count : int }
  | Gauge_state of { mutable value : float }
  | Histogram_state of hist

type series = {
  name : string;
  labels : (string * string) list;
  help : string;
  state : state;
}

type t = {
  mutex : Mutex.t;
  mutable rev_series : series list;  (* reverse registration order *)
  by_key : (string, series) Hashtbl.t;  (* name + rendered labels *)
  kind_of_name : (string, string) Hashtbl.t;
}

type counter = t * series
type gauge = t * series
type histogram = t * hist

let create () =
  {
    mutex = Mutex.create ();
    rev_series = [];
    by_key = Hashtbl.create 64;
    kind_of_name = Hashtbl.create 64;
  }

(* Power-of-four spread from 100µs to 100s, suited to phase and
   test-case durations. *)
let default_duration_buckets =
  [ 0.0001; 0.0004; 0.0016; 0.0064; 0.0256; 0.1024; 0.4096; 1.6384; 6.5536;
    26.2144; 104.8576 ]

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name
  && not (name.[0] >= '0' && name.[0] <= '9')

let valid_label_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       name
  && not (name.[0] >= '0' && name.[0] <= '9')

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text escaping differs from label-value escaping: the exposition
   format (0.0.4) escapes only backslash and newline there — double
   quotes appear verbatim.  Reusing {!escape_label_value} would prefix
   every quote in the help text with a backslash, which scrapers then
   display literally. *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let key_of name labels = name ^ render_labels labels

let kind_string = function
  | Counter_state _ -> "counter"
  | Gauge_state _ -> "gauge"
  | Histogram_state _ -> "histogram"

(* Register (or find) a series under the registry mutex.  [mk] builds
   the fresh state; [check] validates a pre-existing one. *)
let register t ~name ~labels ~help ~kind ~mk ~check =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  let key = key_of name labels in
  Mutex.lock t.mutex;
  let fail msg =
    Mutex.unlock t.mutex;
    invalid_arg msg
  in
  let series =
    match Hashtbl.find_opt t.by_key key with
    | Some s ->
      if kind_string s.state <> kind then
        fail
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_string s.state))
      else if not (check s.state) then
        fail (Printf.sprintf "Metrics: %s re-registered with different buckets" name)
      else s
    | None ->
      (match Hashtbl.find_opt t.kind_of_name name with
      | Some existing when existing <> kind ->
        fail
          (Printf.sprintf "Metrics: %s already registered as a %s" name existing)
      | _ -> ());
      let s = { name; labels; help; state = mk () } in
      Hashtbl.add t.by_key key s;
      Hashtbl.replace t.kind_of_name name kind;
      t.rev_series <- s :: t.rev_series;
      s
  in
  Mutex.unlock t.mutex;
  series

let counter t ?(labels = []) ?(help = "") name =
  ( t,
    register t ~name ~labels ~help ~kind:"counter"
      ~mk:(fun () -> Counter_state { count = 0 })
      ~check:(fun _ -> true) )

let gauge t ?(labels = []) ?(help = "") name =
  ( t,
    register t ~name ~labels ~help ~kind:"gauge"
      ~mk:(fun () -> Gauge_state { value = 0. })
      ~check:(fun _ -> true) )

let histogram t ?(labels = []) ?(help = "")
    ?(buckets = default_duration_buckets) name =
  if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
  let bounds = Array.of_list buckets in
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly ascending")
    bounds;
  let series =
    register t ~name ~labels ~help ~kind:"histogram"
      ~mk:(fun () ->
        Histogram_state
          {
            bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            sum = 0.;
            total = 0;
          })
      ~check:(function
        | Histogram_state h -> h.bounds = bounds
        | Counter_state _ | Gauge_state _ -> false)
  in
  match series.state with
  | Histogram_state h -> (t, h)
  | Counter_state _ | Gauge_state _ -> assert false

let inc ?(by = 1) ((t, s) : counter) =
  if by < 0 then invalid_arg "Metrics.inc: negative increment";
  Mutex.lock t.mutex;
  (match s.state with
  | Counter_state c -> c.count <- c.count + by
  | Gauge_state _ | Histogram_state _ -> ());
  Mutex.unlock t.mutex

let counter_value ((t, s) : counter) =
  Mutex.lock t.mutex;
  let v =
    match s.state with
    | Counter_state c -> c.count
    | Gauge_state _ | Histogram_state _ -> 0
  in
  Mutex.unlock t.mutex;
  v

let set ((t, s) : gauge) v =
  Mutex.lock t.mutex;
  (match s.state with
  | Gauge_state g -> g.value <- v
  | Counter_state _ | Histogram_state _ -> ());
  Mutex.unlock t.mutex

let add ((t, s) : gauge) v =
  Mutex.lock t.mutex;
  (match s.state with
  | Gauge_state g -> g.value <- g.value +. v
  | Counter_state _ | Histogram_state _ -> ());
  Mutex.unlock t.mutex

let gauge_value ((t, s) : gauge) =
  Mutex.lock t.mutex;
  let v =
    match s.state with
    | Gauge_state g -> g.value
    | Counter_state _ | Histogram_state _ -> 0.
  in
  Mutex.unlock t.mutex;
  v

let bucket_index bounds v =
  (* First bound >= v, else the overflow slot. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe ((t, h) : histogram) v =
  Mutex.lock t.mutex;
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1;
  Mutex.unlock t.mutex

let histogram_count ((t, h) : histogram) =
  Mutex.lock t.mutex;
  let v = h.total in
  Mutex.unlock t.mutex;
  v

let histogram_sum ((t, h) : histogram) =
  Mutex.lock t.mutex;
  let v = h.sum in
  Mutex.unlock t.mutex;
  v

let cumulative_buckets ((t, h) : histogram) =
  Mutex.lock t.mutex;
  let acc = ref 0 in
  let finite =
    Array.to_list
      (Array.mapi
         (fun i b ->
           acc := !acc + h.counts.(i);
           (b, !acc))
         h.bounds)
  in
  let result = finite @ [ (infinity, h.total) ] in
  Mutex.unlock t.mutex;
  result

let series_count t =
  Mutex.lock t.mutex;
  let n = List.length t.rev_series in
  Mutex.unlock t.mutex;
  n

(* {2 Snapshots: cross-process metric transfer}

   A snapshot is the registry as plain data — serializable, diffable,
   absorbable into another registry.  Workers snapshot after every
   shard, diff against the previous snapshot, and ship the delta; the
   daemon absorbs deltas under a per-worker label.  Counters and
   histogram buckets add; gauges carry the latest value. *)

type snapshot_value =
  | Counter_snapshot of int
  | Gauge_snapshot of float
  | Histogram_snapshot of {
      bounds : float list;
      counts : int list;  (* per-bucket, non-cumulative; last = overflow *)
      sum : float;
      total : int;
    }

type snapshot_entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_help : string;
  e_value : snapshot_value;
}

let snapshot t =
  Mutex.lock t.mutex;
  let entries =
    List.rev_map
      (fun s ->
        let e_value =
          match s.state with
          | Counter_state c -> Counter_snapshot c.count
          | Gauge_state g -> Gauge_snapshot g.value
          | Histogram_state h ->
            Histogram_snapshot
              {
                bounds = Array.to_list h.bounds;
                counts = Array.to_list h.counts;
                sum = h.sum;
                total = h.total;
              }
        in
        { e_name = s.name; e_labels = s.labels; e_help = s.help; e_value })
      t.rev_series
  in
  Mutex.unlock t.mutex;
  entries

let diff ~before ~after =
  let prior = Hashtbl.create 32 in
  List.iter
    (fun e -> Hashtbl.replace prior (key_of e.e_name e.e_labels) e.e_value)
    before;
  List.filter_map
    (fun e ->
      match (e.e_value, Hashtbl.find_opt prior (key_of e.e_name e.e_labels)) with
      | Counter_snapshot n, Some (Counter_snapshot n0) ->
        if n = n0 then None
        else Some { e with e_value = Counter_snapshot (n - n0) }
      | Counter_snapshot 0, None -> None
      | Gauge_snapshot v, Some (Gauge_snapshot v0) when v = v0 -> None
      | ( Histogram_snapshot { bounds; counts; sum; total },
          Some (Histogram_snapshot h0) )
        when h0.bounds = bounds ->
        if total = h0.total then None
        else
          Some
            {
              e with
              e_value =
                Histogram_snapshot
                  {
                    bounds;
                    counts = List.map2 (fun a b -> a - b) counts h0.counts;
                    sum = sum -. h0.sum;
                    total = total - h0.total;
                  };
            }
      (* New series, a kind change (a programming error absorb will
         surface) or a gauge update: ship as-is. *)
      | _, _ -> Some e)
    after

let absorb ?(extra_labels = []) t entries =
  List.iter
    (fun e ->
      let labels = e.e_labels @ extra_labels in
      match e.e_value with
      | Counter_snapshot n ->
        if n > 0 then
          inc ~by:n (counter t ~labels ~help:e.e_help e.e_name)
      | Gauge_snapshot v -> set (gauge t ~labels ~help:e.e_help e.e_name) v
      | Histogram_snapshot { bounds; counts; sum; total } ->
        let _, h =
          histogram t ~labels ~help:e.e_help ~buckets:bounds e.e_name
        in
        if List.length counts <> Array.length h.counts then
          invalid_arg
            (Printf.sprintf "Metrics.absorb: %s bucket count mismatch" e.e_name);
        Mutex.lock t.mutex;
        List.iteri (fun i n -> h.counts.(i) <- h.counts.(i) + n) counts;
        h.sum <- h.sum +. sum;
        h.total <- h.total + total;
        Mutex.unlock t.mutex)
    entries

(* {2 Rendering}

   Both exporters snapshot under the mutex and render metric families in
   first-registration order, series within a family in registration
   order. *)

let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let render_bound b = if b = infinity then "+Inf" else render_float b

(* Group the registration-ordered series list into (name, series list)
   families: families in first-registration order, series within a
   family in registration order (the exposition format requires all
   series of a name to be contiguous). *)
let families t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.name with
      | Some l -> Hashtbl.replace tbl s.name (s :: l)
      | None ->
        Hashtbl.add tbl s.name [ s ];
        order := s.name :: !order)
    (List.rev t.rev_series);
  List.rev_map (fun n -> (n, List.rev (Hashtbl.find tbl n))) !order

let to_prometheus t =
  Mutex.lock t.mutex;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, series) ->
      let help =
        List.fold_left
          (fun acc s -> if acc = "" then s.help else acc)
          "" series
      in
      if help <> "" then
        Printf.bprintf buf "# HELP %s %s\n" name (escape_help help);
      (match series with
      | s :: _ -> Printf.bprintf buf "# TYPE %s %s\n" name (kind_string s.state)
      | [] -> ());
      List.iter
        (fun s ->
          match s.state with
          | Counter_state c ->
            Printf.bprintf buf "%s%s %d\n" name (render_labels s.labels) c.count
          | Gauge_state g ->
            Printf.bprintf buf "%s%s %s\n" name (render_labels s.labels)
              (render_float g.value)
          | Histogram_state h ->
            let acc = ref 0 in
            Array.iteri
              (fun i b ->
                acc := !acc + h.counts.(i);
                Printf.bprintf buf "%s_bucket%s %d\n" name
                  (render_labels (s.labels @ [ ("le", render_bound b) ]))
                  !acc)
              h.bounds;
            Printf.bprintf buf "%s_bucket%s %d\n" name
              (render_labels (s.labels @ [ ("le", "+Inf") ]))
              h.total;
            Printf.bprintf buf "%s_sum%s %s\n" name (render_labels s.labels)
              (render_float h.sum);
            Printf.bprintf buf "%s_count%s %d\n" name (render_labels s.labels)
              h.total)
        series)
    (families t);
  Mutex.unlock t.mutex;
  Buffer.contents buf

let to_json t =
  let labels l = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l) in
  let bucket le count =
    Json.Obj [ ("le", Json.Str le); ("count", Json.int count) ]
  in
  let series_to_json s =
    let values =
      match s.state with
      | Counter_state c -> [ ("value", Json.int c.count) ]
      | Gauge_state g -> [ ("value", Json.Num g.value) ]
      | Histogram_state h ->
        let acc = ref 0 in
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i b ->
                 acc := !acc + h.counts.(i);
                 bucket (render_bound b) !acc)
               h.bounds)
        in
        [
          ("buckets", Json.Arr (buckets @ [ bucket "+Inf" h.total ]));
          ("sum", Json.Num h.sum);
          ("count", Json.int h.total);
        ]
    in
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("type", Json.Str (kind_string s.state));
         ("labels", labels s.labels);
       ]
      @ values)
  in
  Mutex.lock t.mutex;
  let doc = Json.list series_to_json (List.rev t.rev_series) in
  Mutex.unlock t.mutex;
  Json.to_document (Json.Obj [ ("metrics", doc) ])
