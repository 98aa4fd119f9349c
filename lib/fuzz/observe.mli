open Import

(** One fuzzing execution: run a test case on a core, check the log, and
    extract its coverage edges.

    This is the engine's unit of parallel work — it builds its own
    environment and shares no mutable state, so observations fan out
    across domains and are merged back in candidate order. *)

type t = {
  outcome : Campaign.case_outcome;
      (** The run's verdict, built as a campaign builds it. *)
  edges : (int * int) list;  (** [(Edge.index, raw hit count)] pairs. *)
}

(** [snapshots], if given, establishes the candidate's setup prefix
    through the snapshot engine instead of replaying it (see
    {!Teesec.Snapshot}); the observation is identical either way.
    [wave] (default false) attaches a wave tap on the replay path (an
    engine carries its own setting) — verdict fields are unaffected. *)
val run : ?snapshots:Snapshot.t -> ?wave:bool -> Config.t -> Testcase.t -> t
