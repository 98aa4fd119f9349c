open! Import

(** Simulation-log serialisation.

    The artifact workflow writes the instrumented simulation output to a
    [SimLog.txt] file and runs the checker over it as a separate step.
    This module provides that interchange format: a line-oriented,
    tab-separated rendering of {!Log.record}s that round-trips exactly.

    Line shapes (fields are tab-separated; [~] marks an absent optional
    field; notes are percent-escaped):

    {v
    W <cycle> <ctx> <structure> <origin> <entry>...
    S <cycle> <ctx> <structure> <entry>...
    M <cycle> <ctx> <from-ctx> <to-ctx>
    C <cycle> <ctx> <pc> <instr>
    E <cycle> <ctx> <pc> <cause>
    v}

    where an entry is [<slot>,<addr|~>,<data>,<note>]. *)

(** [to_string log] is the serialised log. *)
val to_string : Log.t -> string

(** [save ~path log] writes the log to a file. *)
val save : path:string -> Log.t -> unit

(** [parse_string s] rebuilds a log; [Error line_no] points at the first
    malformed line. *)
val parse_string : string -> (Log.t, string) result

(** [load ~path] reads a log file. *)
val load : path:string -> (Log.t, string) result

(** [escape] / [unescape] are the note encoders (exposed for tests). *)
val escape : string -> string

val unescape : string -> string
