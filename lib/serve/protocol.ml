let protocol_version = Protocol_version.protocol
let build_version = Protocol_version.build
let version_string = Protocol_version.version_string

(* 64 MiB: far above any shard payload (the largest is a full-corpus
   campaign shard's outcomes, a few hundred KiB), low enough that a
   corrupt length header cannot drive an allocation of gigabytes. *)
let max_frame = 1 lsl 26

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then failwith "Protocol.write_frame: frame too large";
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 header 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 header 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 header 3 (len land 0xff);
  write_all fd (Bytes.to_string header) 0 4;
  write_all fd payload 0 len

(* [read_exact] returns [None] only when EOF arrives before the first
   byte — a cleanly closed peer.  EOF mid-buffer is a truncated frame. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then None else failwith "Protocol: truncated frame"
      | k -> go (off + k)
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | None -> None
  | Some header ->
    let b i = Char.code header.[i] in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame then failwith "Protocol: oversized frame";
    if len = 0 then Some ""
    else (
      match read_exact fd len with
      | None -> failwith "Protocol: truncated frame"
      | Some payload -> Some payload)

(* {2 Messages} *)

type client_msg =
  | Hello of { proto : int; build : string }
  | Submit of { spec : Request.spec; trace : bool; wave : bool }
  | Status
  | Results of { job : string; wait : bool }
  | Ping
  | Shutdown

type job_status = {
  js_job : string;
  js_kind : string;
  js_total : int;
  js_done : int;
  js_running : int;
  js_hits : int;
  js_poisoned : int;
  js_complete : bool;
  js_failed : string option;
}

type status = {
  st_version : string;
  st_workers : int;
  st_worker_restarts : int;
  st_shards_executed : int;
  st_store_hits : int;
  st_store_misses : int;
  st_jobs : job_status list;
}

type server_msg =
  | Hello_ok of { proto : int; build : string }
  | Hello_err of string
  | Submitted of job_status
  | Status_report of status
  | Artifact of {
      job : string;
      data : string;
      trace : string option;
      wave : string option;
          (* Framed wave streams ([Wave.Event.frame_streams]) assembled
             in shard order; [None] unless submitted with [wave]. *)
    }
  | Pending of job_status
  | Failed of { job : string; reason : string }
  | Pong of { build : string }
  | Shutting_down
  | Error_msg of string

type worker_msg =
  | W_shard of {
      digest : string;
      crash : bool;
      job : string;  (* trace context: owning job id *)
      trace : bool;  (* collect and return span/metric deltas *)
      wave : bool;  (* run with wave taps and return the framed streams *)
      work : Request.work;
    }
  | W_exit

(* The observability side channel of one shard: the worker's completed
   span buffer plus the metric activity since its previous reply (with
   the clock reference the daemon needs to re-base the timestamps), and
   the shard's framed wave streams.  Built when the shard was traced
   {e or} wave-tapped; an untraced wave shard carries empty events and
   metrics, an unwaved traced shard carries [so_wave = ""].  Wave bytes
   ride here — never in the store payload — so store digests stay
   byte-stable across wave settings. *)
type shard_obs = {
  so_pid : int;
  so_t0 : int64;  (* worker clock (ns) at shard start *)
  so_events : Obs.Tracer.event list;
  so_metrics : Obs.Metrics.snapshot_entry list;
  so_wave : string;
}

type worker_reply =
  | W_ready
  | W_done of { digest : string; payload : string; obs : shard_obs option }

let encoded f v =
  let b = Codec.enc () in
  f b v;
  Codec.to_string b

let decoded f s =
  let d = Codec.of_string s in
  let v = f d in
  if not (Codec.at_end d) then
    raise (Codec.Decode_error "trailing bytes after message");
  v

let bad_tag what t =
  raise (Codec.Decode_error (Printf.sprintf "unknown %s tag %d" what t))

(* Floats cross the wire as their IEEE-754 bit pattern: exact, and the
   same bytes for the same value on both ends. *)
let enc_float b f = Codec.i64 b (Int64.bits_of_float f)
let dec_float d = Int64.float_of_bits (Codec.i64' d)

(* {3 Trace-event and metric-snapshot codecs} *)

let enc_arg b = function
  | Obs.Tracer.String s ->
    Codec.u8 b 0;
    Codec.str b s
  | Obs.Tracer.Int i ->
    Codec.u8 b 1;
    Codec.int b i
  | Obs.Tracer.Float f ->
    Codec.u8 b 2;
    enc_float b f
  | Obs.Tracer.Bool v ->
    Codec.u8 b 3;
    Codec.bool b v

let dec_arg d =
  match Codec.u8' d with
  | 0 -> Obs.Tracer.String (Codec.str' d)
  | 1 -> Obs.Tracer.Int (Codec.int' d)
  | 2 -> Obs.Tracer.Float (dec_float d)
  | 3 -> Obs.Tracer.Bool (Codec.bool' d)
  | t -> bad_tag "trace arg" t

let enc_named_arg b (k, v) =
  Codec.str b k;
  enc_arg b v

let dec_named_arg d =
  let k = Codec.str' d in
  let v = dec_arg d in
  (k, v)

let phase_tag = function
  | Obs.Tracer.Begin -> 0
  | Obs.Tracer.End -> 1
  | Obs.Tracer.Instant -> 2
  | Obs.Tracer.Metadata -> 3

let phase_of_tag = function
  | 0 -> Obs.Tracer.Begin
  | 1 -> Obs.Tracer.End
  | 2 -> Obs.Tracer.Instant
  | 3 -> Obs.Tracer.Metadata
  | t -> bad_tag "trace phase" t

let enc_event b (e : Obs.Tracer.event) =
  Codec.u8 b (phase_tag e.Obs.Tracer.ph);
  Codec.str b e.Obs.Tracer.name;
  Codec.i64 b e.Obs.Tracer.ts;
  Codec.int b e.Obs.Tracer.tid;
  Codec.list b enc_named_arg e.Obs.Tracer.args

let dec_event d =
  let ph = phase_of_tag (Codec.u8' d) in
  let name = Codec.str' d in
  let ts = Codec.i64' d in
  let tid = Codec.int' d in
  let args = Codec.list' d dec_named_arg in
  { Obs.Tracer.ph; name; ts; tid; args }

let enc_label b (k, v) =
  Codec.str b k;
  Codec.str b v

let dec_label d =
  let k = Codec.str' d in
  let v = Codec.str' d in
  (k, v)

let enc_snapshot_value b = function
  | Obs.Metrics.Counter_snapshot n ->
    Codec.u8 b 0;
    Codec.int b n
  | Obs.Metrics.Gauge_snapshot v ->
    Codec.u8 b 1;
    enc_float b v
  | Obs.Metrics.Histogram_snapshot { bounds; counts; sum; total } ->
    Codec.u8 b 2;
    Codec.list b enc_float bounds;
    Codec.list b Codec.int counts;
    enc_float b sum;
    Codec.int b total

let dec_snapshot_value d =
  match Codec.u8' d with
  | 0 -> Obs.Metrics.Counter_snapshot (Codec.int' d)
  | 1 -> Obs.Metrics.Gauge_snapshot (dec_float d)
  | 2 ->
    let bounds = Codec.list' d dec_float in
    let counts = Codec.list' d Codec.int' in
    let sum = dec_float d in
    let total = Codec.int' d in
    Obs.Metrics.Histogram_snapshot { bounds; counts; sum; total }
  | t -> bad_tag "metric snapshot" t

let enc_snapshot_entry b (e : Obs.Metrics.snapshot_entry) =
  Codec.str b e.Obs.Metrics.e_name;
  Codec.list b enc_label e.Obs.Metrics.e_labels;
  Codec.str b e.Obs.Metrics.e_help;
  enc_snapshot_value b e.Obs.Metrics.e_value

let dec_snapshot_entry d =
  let e_name = Codec.str' d in
  let e_labels = Codec.list' d dec_label in
  let e_help = Codec.str' d in
  let e_value = dec_snapshot_value d in
  { Obs.Metrics.e_name; e_labels; e_help; e_value }

let enc_shard_obs b so =
  Codec.int b so.so_pid;
  Codec.i64 b so.so_t0;
  Codec.list b enc_event so.so_events;
  Codec.list b enc_snapshot_entry so.so_metrics;
  Codec.str b so.so_wave

let dec_shard_obs d =
  let so_pid = Codec.int' d in
  let so_t0 = Codec.i64' d in
  let so_events = Codec.list' d dec_event in
  let so_metrics = Codec.list' d dec_snapshot_entry in
  let so_wave = Codec.str' d in
  { so_pid; so_t0; so_events; so_metrics; so_wave }

let enc_client b = function
  | Hello { proto; build } ->
    Codec.u8 b 0;
    Codec.int b proto;
    Codec.str b build
  | Submit { spec; trace; wave } ->
    Codec.u8 b 1;
    Codec.bool b trace;
    Codec.bool b wave;
    Request.encode_spec b spec
  | Status -> Codec.u8 b 2
  | Results { job; wait } ->
    Codec.u8 b 3;
    Codec.str b job;
    Codec.bool b wait
  | Ping -> Codec.u8 b 4
  | Shutdown -> Codec.u8 b 5

let dec_client d =
  match Codec.u8' d with
  | 0 ->
    let proto = Codec.int' d in
    let build = Codec.str' d in
    Hello { proto; build }
  | 1 ->
    let trace = Codec.bool' d in
    let wave = Codec.bool' d in
    let spec = Request.decode_spec d in
    Submit { spec; trace; wave }
  | 2 -> Status
  | 3 ->
    let job = Codec.str' d in
    let wait = Codec.bool' d in
    Results { job; wait }
  | 4 -> Ping
  | 5 -> Shutdown
  | t -> bad_tag "client message" t

let enc_job_status b js =
  Codec.str b js.js_job;
  Codec.str b js.js_kind;
  Codec.int b js.js_total;
  Codec.int b js.js_done;
  Codec.int b js.js_running;
  Codec.int b js.js_hits;
  Codec.int b js.js_poisoned;
  Codec.bool b js.js_complete;
  Codec.option b Codec.str js.js_failed

let dec_job_status d =
  let js_job = Codec.str' d in
  let js_kind = Codec.str' d in
  let js_total = Codec.int' d in
  let js_done = Codec.int' d in
  let js_running = Codec.int' d in
  let js_hits = Codec.int' d in
  let js_poisoned = Codec.int' d in
  let js_complete = Codec.bool' d in
  let js_failed = Codec.option' d Codec.str' in
  {
    js_job;
    js_kind;
    js_total;
    js_done;
    js_running;
    js_hits;
    js_poisoned;
    js_complete;
    js_failed;
  }

let enc_server b = function
  | Hello_ok { proto; build } ->
    Codec.u8 b 0;
    Codec.int b proto;
    Codec.str b build
  | Hello_err msg ->
    Codec.u8 b 1;
    Codec.str b msg
  | Submitted js ->
    Codec.u8 b 2;
    enc_job_status b js
  | Status_report st ->
    Codec.u8 b 3;
    Codec.str b st.st_version;
    Codec.int b st.st_workers;
    Codec.int b st.st_worker_restarts;
    Codec.int b st.st_shards_executed;
    Codec.int b st.st_store_hits;
    Codec.int b st.st_store_misses;
    Codec.list b enc_job_status st.st_jobs
  | Artifact { job; data; trace; wave } ->
    Codec.u8 b 4;
    Codec.str b job;
    Codec.str b data;
    Codec.option b Codec.str trace;
    Codec.option b Codec.str wave
  | Pending js ->
    Codec.u8 b 5;
    enc_job_status b js
  | Failed { job; reason } ->
    Codec.u8 b 6;
    Codec.str b job;
    Codec.str b reason
  | Pong { build } ->
    Codec.u8 b 7;
    Codec.str b build
  | Shutting_down -> Codec.u8 b 8
  | Error_msg msg ->
    Codec.u8 b 9;
    Codec.str b msg

let dec_server d =
  match Codec.u8' d with
  | 0 ->
    let proto = Codec.int' d in
    let build = Codec.str' d in
    Hello_ok { proto; build }
  | 1 -> Hello_err (Codec.str' d)
  | 2 -> Submitted (dec_job_status d)
  | 3 ->
    let st_version = Codec.str' d in
    let st_workers = Codec.int' d in
    let st_worker_restarts = Codec.int' d in
    let st_shards_executed = Codec.int' d in
    let st_store_hits = Codec.int' d in
    let st_store_misses = Codec.int' d in
    let st_jobs = Codec.list' d dec_job_status in
    Status_report
      {
        st_version;
        st_workers;
        st_worker_restarts;
        st_shards_executed;
        st_store_hits;
        st_store_misses;
        st_jobs;
      }
  | 4 ->
    let job = Codec.str' d in
    let data = Codec.str' d in
    let trace = Codec.option' d Codec.str' in
    let wave = Codec.option' d Codec.str' in
    Artifact { job; data; trace; wave }
  | 5 -> Pending (dec_job_status d)
  | 6 ->
    let job = Codec.str' d in
    let reason = Codec.str' d in
    Failed { job; reason }
  | 7 -> Pong { build = Codec.str' d }
  | 8 -> Shutting_down
  | 9 -> Error_msg (Codec.str' d)
  | t -> bad_tag "server message" t

let enc_worker b = function
  | W_shard { digest; crash; job; trace; wave; work } ->
    Codec.u8 b 0;
    Codec.str b digest;
    Codec.bool b crash;
    Codec.str b job;
    Codec.bool b trace;
    Codec.bool b wave;
    Request.encode_work b work
  | W_exit -> Codec.u8 b 1

let dec_worker d =
  match Codec.u8' d with
  | 0 ->
    let digest = Codec.str' d in
    let crash = Codec.bool' d in
    let job = Codec.str' d in
    let trace = Codec.bool' d in
    let wave = Codec.bool' d in
    let work = Request.decode_work d in
    W_shard { digest; crash; job; trace; wave; work }
  | 1 -> W_exit
  | t -> bad_tag "worker message" t

let enc_worker_reply b = function
  | W_ready -> Codec.u8 b 0
  | W_done { digest; payload; obs } ->
    Codec.u8 b 1;
    Codec.str b digest;
    Codec.str b payload;
    Codec.option b enc_shard_obs obs

let dec_worker_reply d =
  match Codec.u8' d with
  | 0 -> W_ready
  | 1 ->
    let digest = Codec.str' d in
    let payload = Codec.str' d in
    let obs = Codec.option' d dec_shard_obs in
    W_done { digest; payload; obs }
  | t -> bad_tag "worker reply" t

let encode_client_msg = encoded enc_client
let decode_client_msg = decoded dec_client
let encode_server_msg = encoded enc_server
let decode_server_msg = decoded dec_server
let encode_worker_msg = encoded enc_worker
let decode_worker_msg = decoded dec_worker
let encode_worker_reply = encoded enc_worker_reply
let decode_worker_reply = decoded dec_worker_reply
