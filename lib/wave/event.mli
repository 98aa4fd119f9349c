(** The wave event vocabulary and its compact binary codec.

    A wave stream is a flat byte sequence of cycle-stamped
    microarchitectural events, one per structure operation.  {!of_log}
    encodes it from a tapped simulation log; {!decode} reads it back for
    the query engine and the VCD exporter.  Each event is a kind byte,
    the absolute cycle as a LEB128 varint, a one-byte structure id, then
    varints for slot, domain and value.  The same run always yields the
    same bytes. *)

type kind =
  | Fill  (** An entry was written (refill, push, update, write-back). *)
  | Evict  (** An entry left the structure (eviction, drain). *)
  | Flush  (** The whole structure was flushed or reset. *)
  | Hit  (** A lookup was served from the structure. *)
  | Residue  (** Context-switch residue snapshot: occupancy survives. *)
  | Pmp_check  (** A PMP permission check; [value] is 1 on grant. *)
  | Ctx_switch  (** Security-domain switch; [value] is the new domain. *)

(** The kind byte. *)
val kind_to_int : kind -> int

val kind_to_string : kind -> string

(** [domain_of_ctx ctx] is the security-domain tag a stream carries:
    host user, supervisor and machine mode are 0–2, the monitor 3, and
    enclave [id] is [4 + id]. *)
val domain_of_ctx : Simlog.Exec_context.t -> int

(** The structure id of machine-wide events (PMP checks, domain
    switches). *)
val no_structure : int

(** [structure_to_int s] is [s]'s structure id, [Structure.to_code s]. *)
val structure_to_int : Simlog.Structure.t -> int

(** A decoded event. *)
type t = {
  kind : kind;
  cycle : int;
  structure : Simlog.Structure.t option;
  slot : int;  (** Entry index inside the structure; 0 when unknown. *)
  domain : int;  (** Security-domain tag of the executing context. *)
  value : int;
      (** For structure events: occupancy-after-the-operation plus one
          where cheap to read, 0 when unknown.  The grant bit for
          {!Pmp_check}; the destination domain for {!Ctx_switch}. *)
}

val pp : Format.formatter -> t -> unit

(** [encode buf ~kind ~cycle ~structure_id ~slot ~domain ~value] appends
    one event; every number must be non-negative. *)
val encode :
  Buffer.t ->
  kind:kind ->
  cycle:int ->
  structure_id:int ->
  slot:int ->
  domain:int ->
  value:int ->
  unit

(** [decode src] is the stream's events in order; corrupt input is an
    [Error]. *)
val decode : string -> (t list, string) result

(** [tap log ~kind ~cycle ~structure_id ~slot ~ctx ~value] appends the
    event to [log] as a wave record (see [Simlog.Log.add_wave]), in the
    security domain of [ctx]: nothing when [log] is not tapped. *)
val tap :
  Simlog.Log.t ->
  kind:kind ->
  cycle:int ->
  structure_id:int ->
  slot:int ->
  ctx:Simlog.Exec_context.t ->
  value:int ->
  unit

(** [of_log ?clip log] is the wave stream of a tapped log: its wave
    records, plus the events derived from the records that hold them
    anyway —

    - a [Snapshot] is a {!Residue} of value [1 + entries];
    - a [Mode_switch] is a {!Ctx_switch};
    - a [Write] of the register file, the I-cache or the prefetcher, or
      of origin [Fault_inject], is a {!Fill} of its first entry's slot.

    Each event sits at its record's position, so the stream is the one
    the machine would have tapped.  [""] when [log] is not tapped.
    With [~clip:(lo, hi)] only the events of cycles [lo..hi] are kept,
    and the {!Ctx_switch} events before [lo]. *)
val of_log : ?clip:int * int -> Simlog.Log.t -> string

(** {2 Stream framing}

    A shard or a campaign produces one stream per test case; the framed
    form concatenates them as [varint name-length][name][varint
    payload-length][payload] so they survive transport as one blob (the
    serve wire protocol forwards exactly these bytes). *)

val frame_streams : (string * string) list -> string

(** [output_frames oc streams] writes [frame_streams streams] to [oc]
    one frame at a time, without building the whole blob. *)
val output_frames : out_channel -> (string * string) list -> unit

(** [unframe src] inverts {!frame_streams}; corrupt framing is an
    [Error]. *)
val unframe : string -> ((string * string) list, string) result
