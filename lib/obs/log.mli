(** A leveled structured-log sink emitting JSON Lines.

    Each call renders one self-contained JSON object ({!Json.to_line})
    terminated by a newline: the level, a monotonic nanosecond timestamp, the emitting
    pid, the event name and the caller's (key, value) fields in order —
    greppable with [jq] or plain [grep '"event": "dispatch"'].

    {b Determinism}: with [~deterministic:true] the timestamp and pid —
    the only run-varying fields — are omitted, so two runs of the same
    code path produce byte-identical log lines; the test suites compare
    them directly.  Like the {!Obs} sink, the log never feeds back into
    verdicts: it is write-only observability.

    The {!null} sink drops everything at the cost of one branch, so
    components can take a [Log.t] unconditionally. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

(** [level_of_string s] parses ["debug"|"info"|"warn"|"error"]. *)
val level_of_string : string -> level option

type value = String of string | Int of int | Float of float | Bool of bool

type t

(** Drops every event. *)
val null : t

(** [create ~writer ()] sends each rendered line (newline included) to
    [writer] under a mutex.  [level] is the threshold (default [Info]);
    [clock] defaults to a fresh {!Clock.monotonic}. *)
val create :
  ?level:level ->
  ?deterministic:bool ->
  ?clock:Clock.t ->
  writer:(string -> unit) ->
  unit ->
  t

(** [open_file path] truncates and writes [path]; {!close} closes it. *)
val open_file :
  ?level:level -> ?deterministic:bool -> ?clock:Clock.t -> string -> t

val close : t -> unit

(** [enabled t level] is whether an event at [level] would be written —
    for skipping expensive field construction. *)
val enabled : t -> level -> bool

val debug : t -> event:string -> (string * value) list -> unit
val info : t -> event:string -> (string * value) list -> unit
val warn : t -> event:string -> (string * value) list -> unit
val error : t -> event:string -> (string * value) list -> unit
