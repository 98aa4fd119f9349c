(** Rendering of engine reports.

    The JSON form deliberately contains no wall time or host detail:
    reports for the same seed must be byte-identical across job counts
    and reruns (the acceptance criterion the jobs-determinism test
    pins).  Nothing in the repository times the fuzzing engine. *)

val pp : Format.formatter -> Engine.report -> unit

val to_json_string : Engine.report -> string

val save_json : path:string -> Engine.report -> unit
