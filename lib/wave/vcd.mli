(** VCD (Value Change Dump) export of wave streams.

    {!render} lays a list of per-test-case streams end to end on one
    timeline loadable in GTKWave or Surfer: per-structure occupancy,
    last-event-kind and last-touched-slot signals, plus machine-wide
    security-domain, PMP-grant and case-index signals.  One simulated
    cycle is one timescale unit (1ns).  The output is deterministic: no
    dates, no wall clock. *)

(** [render streams] renders [(name, stream)] pairs in order.  A stream
    that does not decode is an [Error] naming it, and nothing is
    rendered. *)
val render : (string * string) list -> (string, string) result

(** What {!validate} counted in a file it accepted. *)
type stats = {
  signals : int;
  changes : int;
  last_time : int;
  has_timescale : bool;
}

(** [validate src] is the strict reader behind [vcd-check]: the header
    declares its signals before [$enddefinitions], every value change
    names a declared signal with a value that fits its width, and
    timestamps never go backwards. *)
val validate : string -> (stats, string) result
