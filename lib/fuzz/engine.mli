open Import

(** The coverage-guided fuzzing engine.

    An AFL-style feedback loop over the behavioural simulator and the
    checker: candidates are generated sequentially from a single
    SplitMix64 cursor (seed corpus → scheduler-picked mutants →
    exploration draws), executed in fixed-size batches fanned out over
    {!Parallel.Pool}, and merged back in candidate order.  Because
    generation never overlaps execution and the merge is ordered, the
    report is byte-identical for every [?jobs] value.

    [energy] is the percentage of candidates produced by mutating corpus
    entries (once any exist); the remainder are blind draws through
    {!Fuzzer.random_case}.  With [energy = 0] the engine performs no
    seeding and no mutation, so its executed stream {e is}
    [Fuzzer.random_corpus ~seed ~count:budget] — the random baseline is
    the same machinery, not a separate code path. *)

type options = {
  seed : Word.t;
  budget : int;  (** Total test-case executions. *)
  batch : int;  (** Candidates per parallel batch (not [jobs]-dependent). *)
  energy : int;  (** Mutation energy in percent, 0–100; 0 = blind random. *)
  stop_on_full : bool;
      (** Stop at the end of the batch in which every leakage case the
          core is expected to exhibit (paper Table 3) has been found. *)
}

val default : options
(** seed [0x5EED], budget 250, batch 32, energy 80, keep running. *)

type discovery = {
  case : Case.id;
  at : int;  (** 1-based executed-candidate count at first finding. *)
  testcase : string;
}

type report = {
  config : Config.t;
  options : options;
  executed : int;
  edges_covered : int;
  bits_covered : int;
  corpus_entries : int;  (** Interesting candidates kept in the queue. *)
  distilled : int;  (** Size of the minimal coverage-preserving subset. *)
  discoveries : discovery list;  (** In discovery order. *)
  found : Case.id list;  (** Sorted by case. *)
  cases_to_full_table3 : int option;
      (** Executed count at which every expected case had been found. *)
  residue_warnings : int;
  total_cycles : int;
  executed_cases : Testcase.t list;
      (** The full executed stream, in order (for differential tests and
          corpus export; not part of the JSON report). *)
  corpus_cases : Testcase.t list;
      (** The interesting entries, in the order they entered the queue
          (what [fuzz --save-corpus] writes). *)
  waves : (string * string) list;
      (** Per-candidate (name, encoded wave stream) pairs in executed
          order; empty unless the run was tapped.  Not part of the
          JSON report — the CLI writes them to a separate [--wave]
          file. *)
  provenance : Provenance.t list;
      (** Causal chains of the discovering runs, in discovery order:
          for each first-seen Table 3 case, the discovering
          observation's matching records.  Log-derived, so identical
          across wave, jobs and snapshot settings. *)
}

(** [run ?progress ?jobs ?obs options config] drives a campaign.
    [progress] receives (executed, budget, summary line) in candidate
    order for every job count.

    [obs] (default [Obs.noop]) receives per-batch spans
    ([fuzz/generate], [fuzz/execute], [fuzz/merge]), execution/novelty
    counters, coverage and corpus gauges, and per-family UCB1 scheduler
    gauges ([teesec_fuzz_family_*{family=...}]).  The sink only reads
    engine state — the candidate stream and the report are byte-identical
    with or without it.

    [snapshots], if given, establishes each candidate's setup prefix
    through the snapshot engine (see {!Teesec.Snapshot}); the report
    stays byte-identical either way.

    [wave] (default false) taps every replayed candidate's machine and
    collects the streams into [report.waves]; an engine carries its own
    setting ({!Teesec.Snapshot.create}'s [wave]) and [wave] is then
    ignored.  Every other report field is unaffected.

    [seeds] appends external seed test cases (e.g. a symex-synthesised
    corpus loaded through {!Corpus_io}) after the built-in
    {!seed_corpus} in guided mode; they are renumbered onto the executed
    stream, consume no randomness, and share the one coverage bitmap,
    so the seeded stream's prefix is exactly the unseeded one.  The
    blind baseline ([energy = 0]) ignores them and stays cold. *)
val run :
  ?progress:(int -> int -> string -> unit) ->
  ?jobs:int ->
  ?obs:Obs.t ->
  ?snapshots:Snapshot.t ->
  ?wave:bool ->
  ?seeds:Testcase.t list ->
  options ->
  Config.t ->
  report

(** The seed corpus the guided mode starts from: the first two grid
    parameter sets of every access path, round-robin over the paths
    (every family's first entry, then every family's second), so the
    whole verification plan is touched within the first 15
    executions. *)
val seed_corpus : unit -> Testcase.t list
