(** Coverage edges over the simulation log.

    The coverage-guided fuzzer (lib/fuzz) measures progress in terms of
    {e edges}: a [Write] event contributes the triple of the structure it
    touched, the access-path provenance it arrived by, and the privilege
    transition the machine most recently performed.  Two test cases that
    move the same data through the same structure but across different
    privilege boundaries therefore count as different behaviour — which
    is exactly the distinction the verification plan cares about.

    Every edge has a small stable integer {!index} so a whole corpus's
    coverage fits in a fixed-size bitmap with a stable encoding across
    runs, job counts and processes. *)

(** Execution contexts collapsed to their privilege class.  Enclave ids
    are deliberately dropped: reaching a structure from {e any} enclave
    is the same edge. *)
type ctx_class = Host_user | Host_supervisor | Host_machine | Enclave | Monitor

type t = {
  structure : Structure.t;
  origin : Log.origin;
  from_class : ctx_class;  (** Where the last mode switch came from. *)
  to_class : ctx_class;  (** The context the write was observed in. *)
}

val to_string : t -> string

(** Number of distinct edge indices ([structures x origins x classes^2]);
    the size of the coverage bitmap. *)
val count : int

(** [index t] is a stable encoding in [0 .. count - 1].  It depends only
    on constructor declaration order, so persisting indices across
    processes is safe within one build of the library. *)
val index : t -> int

(** [of_index i] inverts [index].  Raises [Invalid_argument] when [i] is
    out of range. *)
val of_index : int -> t

(** [of_log log] walks the log once and returns every edge exercised by
    a [Write] event together with its hit count, in first-observed
    order.  [Snapshot]/[Commit]/... records contribute no edges; they
    only advance the privilege-transition state via [Mode_switch].  It
    is [edges (walk log)]. *)
val of_log : Log.t -> (t * int) list

(** {1 Walks}

    The state of {!of_log}'s walk after a prefix of a log: the hit count
    per index, the first-seen order and the class of the last mode
    switch's source.  A log that extends a marked prefix is classified
    by continuing the prefix's walk over only the records appended
    since the mark, with the same result as walking the whole log. *)

type walk

(** [walk log] is the walk over every record of [log]. *)
val walk : Log.t -> walk

(** [continue w log ~since] continues [w], the walk of [log] up to the
    mark [since], over the records appended after it
    ({!Log.iter_since}).  [w] itself is unchanged, so one walk can be
    continued over many logs that extend the same mark. *)
val continue : walk -> Log.t -> since:Log.mark -> walk

(** The edges a walk has seen and their hit counts, in first-observed
    order. *)
val edges : walk -> (t * int) list
