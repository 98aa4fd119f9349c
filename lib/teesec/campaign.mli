open! Import

(** Campaign driver: runs a test-case corpus against one core
    configuration and aggregates the checker's findings into the Table 3
    verdicts. *)

type case_stats = {
  case : Case.id;
  found : bool;
  testcases : int;  (** How many test cases surfaced the case. *)
  first_testcase : string option;  (** Name of the first surfacing case. *)
}

type result = {
  config : Config.t;
  total_cases : int;
  stats : (Case.id * case_stats) list;
  found : Case.id list;
  residue_warnings : int;
  total_cycles : int;
  total_log_records : int;
  waves : (string * string) list;
      (** Per-case (name, encoded wave stream) pairs in corpus order;
          empty unless the run was tapped.  No
          rendered verdict artifact includes them — the CLI writes them
          to a separate [--wave] file. *)
  provenance : Provenance.t list;
      (** One causal-chain record per classified finding, in corpus
          order.  Derived from the simulation log only, so identical
          across wave, jobs and snapshot settings. *)
}
(** Deliberately carries no wall-clock data: campaign results (and
    everything rendered from them) are byte-identical across job counts
    and observability settings — and, [waves] aside, across wave-tap
    settings.  Timing lives in the {!Obs} sink. *)

type case_outcome = {
  co_name : string;
  co_cases : Case.id list;
  co_residue : int;
  co_cycles : int;
  co_log_records : int;
  co_summary : string;
  co_wave : string;
      (** Encoded wave stream for the case; [""] when taps are off.
          Excluded from the serve layer's store payloads — waves ride
          the side channel ([shard_obs]) like traces do. *)
  co_provenance : Provenance.t list;
      (** Causal chains of the case's classified findings. *)
}
(** Everything the merge phase needs from one test case, and the one
    per-case verdict record: campaigns, the clean baselines of fault
    injection ([Inject_campaign]), fuzzing observations and
    [explain] all build it with {!outcome_of_run}.  It is also the unit
    of work the campaign service (lib/serve) ships between worker
    processes and the daemon: outcomes for any partition of a corpus,
    concatenated back in corpus order and folded through {!aggregate},
    produce exactly the {!result} a single {!run} over the whole corpus
    would. *)

(** [outcome_of_run ~config run findings] derives every field of a case's
    outcome from its run and the checker's [findings] on that run's log:
    distinct cases, residue count, cycles, log records, summary line,
    wave stream and the provenance of the classified findings. *)
val outcome_of_run :
  config:Config.t -> Runner.outcome -> Checker.finding list -> case_outcome

(** [eval_case ?obs ?snapshots config tc] runs and checks one test case.
    [run] is (observably) [aggregate] over [eval_case] of every test
    case in corpus order. *)
val eval_case :
  ?obs:Obs.t ->
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  Config.t ->
  Testcase.t ->
  case_outcome

(** [aggregate ?progress ?obs config outcomes] merges per-case outcomes
    (in corpus order) into a campaign result.  Deterministic: a plain
    sequential fold. *)
val aggregate :
  ?progress:(int -> int -> string -> unit) ->
  ?obs:Obs.t ->
  Config.t ->
  case_outcome list ->
  result

(** [run ?progress ?jobs ?obs config testcases] executes every test case
    on a fresh environment and checks its log.  [progress] is called
    after each test case with (index, total, summary line).

    [jobs] (default 1) fans the test cases out across that many OCaml 5
    domains; each case is independent (its own [Env]), and results are
    merged sequentially in test-case order, so the returned [result] —
    and the order of [progress] calls — is identical for every [jobs]
    value.  With [jobs <= 1] no domain is spawned and [progress] streams
    as cases finish; with [jobs > 1] it fires during the final merge.

    [obs] (default [Obs.noop]) receives phase spans
    ([campaign/execute], [campaign/merge]), per-case runner and checker
    duration histograms, case/finding counters and a GC sample; it never
    influences the returned result.

    [snapshots], if given, establishes each test case's setup prefix
    through the snapshot engine instead of replaying it (see
    {!Snapshot}); the result stays byte-identical either way.

    [wave] (default false) taps every replayed case's machine and
    collects the per-case streams into [result.waves]; an engine carries
    its own setting ({!Snapshot.create}'s [wave]) and [wave] is then
    ignored.  Verdict fields are unaffected. *)
val run :
  ?progress:(int -> int -> string -> unit) ->
  ?jobs:int ->
  ?obs:Obs.t ->
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  Config.t ->
  Testcase.t list ->
  result

(** [run_full ?progress ?jobs ?obs config] runs the whole deterministic
    corpus. *)
val run_full :
  ?progress:(int -> int -> string -> unit) ->
  ?jobs:int ->
  ?obs:Obs.t ->
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  Config.t ->
  result

(** [matches_paper result] is true when the set of found cases equals the
    paper's Table 3 column for this core. *)
val matches_paper : result -> bool

(** [mismatches result] lists (case, expected, found) triples that
    disagree with the paper. *)
val mismatches : result -> (Case.id * bool * bool) list

val pp_result : Format.formatter -> result -> unit
