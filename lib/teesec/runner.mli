open! Import

(** Test-case runner.

    Executes one assembled test case with the security monitor
    installed, and hands the resulting simulation log (plus the seeded
    secrets) to the caller — normally the checker.  A final
    context-switch snapshot is forced at the end of the run so residue
    left by the last gadget is visible.

    The setup/helper prefix (every gadget but the last) either replays
    on a freshly created machine or, when a {!Snapshot} engine is
    supplied, is restored from a cached snapshot of an earlier identical
    prefix.  Both paths produce byte-identical outcomes; the replay path
    is the determinism oracle the differential tests diff the engine
    against. *)

type outcome = {
  testcase : Testcase.t;
  log : Log.t;
  tracker : Secret.tracker;
  env : Env.t;
  cycles : int;
  fork_cycle : int;
      (** Cycle count at the fork point — after the setup prefix, before
          [prepare] and the access gadget.  [cycles - fork_cycle] is the
          span the access phase executed for, the window the fault
          injector's relative firing cycles are measured against. *)
  log_records : int;
  wave : string;
      (** The case's wave-event stream, encoded from its tapped log
          ([Wave.Event.of_log]); [""] when taps are off. *)
}

(** [run config testcase] executes the gadget chain in order.

    [snapshots], if given, establishes the setup prefix through the
    snapshot engine (which must have been created for [config] —
    [Invalid_argument] otherwise) instead of replaying it.

    [prepare], if given, runs at the fork point: after the setup prefix
    is established (replayed or restored), before the access gadget
    emits.  The fault injector uses it to arm its machine hooks; arming
    at the fork point keeps faulted runs identical across the two prefix
    paths.

    [wave] (default false) taps the replayed machine's log; the encoded
    stream comes back in [outcome.wave].  With [snapshots] the engine's
    own setting ({!Snapshot.create}'s [wave]) decides and [wave] is
    ignored, since the taps live on the pooled machine. *)
val run :
  ?snapshots:Snapshot.t ->
  ?prepare:(Env.t -> unit) ->
  ?wave:bool ->
  Config.t ->
  Testcase.t ->
  outcome
