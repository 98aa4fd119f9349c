(** Wire protocol of the campaign service.

    Framing: every message is one frame — a 4-byte big-endian payload
    length followed by the payload (a {!Codec} document).  Frames are
    capped at {!max_frame} bytes; a peer announcing more is treated as
    corrupt and dropped.

    Both client and worker connections start with a handshake: the first
    client frame must be {!Hello}, and the daemon answers {!Hello_ok}
    or {!Hello_err} (protocol mismatch — the client is rejected before
    any request is decoded, never mid-stream). *)

val protocol_version : int
val build_version : string

(** ["teesec <build> (protocol <n>)"] — what [teesec version] prints. *)
val version_string : string

(** [write_frame fd payload] writes one frame, handling short writes. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one frame; [None] on a cleanly closed peer
    (EOF before the first header byte).  Raises [Failure] on truncated
    or oversized frames. *)
val read_frame : Unix.file_descr -> string option

(** {2 Client messages} *)

type client_msg =
  | Hello of { proto : int; build : string }
  | Submit of { spec : Request.spec; trace : bool; wave : bool }
      (** [trace] asks the daemon to collect a merged cross-process
          trace for this job; [wave] asks for the job's framed wave
          streams.  Both travel beside the spec — never inside it — so
          neither perturbs the job's store digests. *)
  | Status
  | Results of { job : string; wait : bool }
  | Ping
  | Shutdown

type job_status = {
  js_job : string;
  js_kind : string;
  js_total : int;  (** Shards planned. *)
  js_done : int;  (** Shards with a verdict (store hits included). *)
  js_running : int;  (** Shards currently assigned to a worker. *)
  js_hits : int;  (** Shards satisfied from the store at submit time. *)
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
  st_jobs : job_status list;  (** In submission order. *)
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
    }
      (** [trace] is the merged Chrome trace-event JSON, present exactly
          when the job was submitted with tracing on.  [wave] is the
          job's framed wave streams ({!Wave.Event.frame_streams}),
          assembled in shard order, present exactly when submitted with
          waves on — note shards satisfied from the verdict store
          contribute no streams (the store never holds waves). *)
  | Pending of job_status
  | Failed of { job : string; reason : string }
  | Pong of { build : string }
  | Shutting_down
  | Error_msg of string

(** {2 Worker messages} *)

type worker_msg =
  | W_shard of {
      digest : string;
      crash : bool;
      job : string;  (** Trace context: owning job id. *)
      trace : bool;  (** Collect and return span/metric deltas. *)
      wave : bool;  (** Run with wave taps; return the framed streams. *)
      work : Request.work;
    }
  | W_exit

(** The observability side channel of one shard: the worker's completed
    span buffer plus metric activity since its previous reply, with the
    clock reference ([so_t0], worker clock in ns at shard start) the
    daemon needs to re-base timestamps onto its own timeline — and the
    shard's framed wave streams.  Present on a reply when the shard was
    traced or wave-tapped; an untraced wave shard has empty [so_events]
    and [so_metrics], an unwaved traced shard has [so_wave = ""].
    Waves ride here rather than in the store payload, so store digests
    stay byte-stable across wave settings. *)
type shard_obs = {
  so_pid : int;
  so_t0 : int64;
  so_events : Obs.Tracer.event list;
  so_metrics : Obs.Metrics.snapshot_entry list;
  so_wave : string;
}

type worker_reply =
  | W_ready
  | W_done of { digest : string; payload : string; obs : shard_obs option }

val encode_client_msg : client_msg -> string
val decode_client_msg : string -> client_msg
val encode_server_msg : server_msg -> string
val decode_server_msg : string -> server_msg
val encode_worker_msg : worker_msg -> string
val decode_worker_msg : string -> worker_msg
val encode_worker_reply : worker_reply -> string
val decode_worker_reply : string -> worker_reply
