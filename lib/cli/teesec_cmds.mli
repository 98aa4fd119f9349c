(** The TEESec command tree.

    Exposed as a library so the smoke tests can evaluate the exact
    command tree the binary ships against a synthetic argv: every
    subcommand accepts [--help] (exit 0), and an unknown flag reports
    the subcommand's usage rather than an exception. *)

(** The subcommand names, in listing order. *)
val command_names : string list

(** [eval ?argv ()] evaluates the CLI (defaults to [Sys.argv]) and
    returns the process exit code. *)
val eval : ?argv:string array -> unit -> int

(** [eval_captured ~argv] evaluates with help and error output captured,
    returning [(exit code, captured text)].  Subcommand bodies still
    print to the real channels; [--help] and argument errors do not
    reach a body. *)
val eval_captured : argv:string array -> int * string
