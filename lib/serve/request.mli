open! Import

(** Campaign-service request vocabulary.

    A {!spec} is the one description of a campaign, inject or fuzz run,
    whichever front end starts it: the one-shot subcommands and [submit]
    build it from the same flags, and {!validate}, {!corpus_of} and
    {!digest_fields} are the only places that interpret it.  Cores and
    mitigations travel by name, so the wire format never embeds a
    machine configuration.  A {!work} item is what a worker process
    executes: the spec plus the explicit test-case slice of one
    shard. *)

type case_desc = {
  cd_id : int;  (** Global corpus id — preserved so report lines match. *)
  cd_path : string;  (** [Access_path.to_string] name. *)
  cd_offset : int;
  cd_width : int;
  cd_variant : int;
  cd_seed : Word.t;
}

val case_desc_of_testcase : Testcase.t -> case_desc

(** Re-assemble the test case.  Raises [Invalid_argument] on an unknown
    access path or invalid parameters. *)
val testcase_of_case_desc : case_desc -> Testcase.t

val case_desc_equal : case_desc -> case_desc -> bool

type corpus_kind =
  | Slice  (** The representative slice (the CLI default). *)
  | Full  (** All 585 grid cases. *)
  | Random of { count : int; seed : Word.t }  (** Long-fuzzing mode. *)

type spec =
  | Campaign of {
      core : string;
      mitigations : string list;
      corpus : corpus_kind;
    }
  | Inject of { core : string; faults : int; seed : Word.t; full : bool }
  | Fuzz of { core : string; options : Engine.options }

(** "campaign", "inject" or "fuzz". *)
val kind : spec -> string

(** [validate spec] is the one gate a spec passes before anything runs
    it, on either transport: every parameter is checked against the
    range its engine asserts (random count >= 1, faults >= 0,
    budget >= 0, batch >= 1, energy in 0..100), and the core and
    mitigation names are resolved — mitigations over Table 4's six plus
    the §8 extensions ({!Mitigation.extensions}), case-insensitively.  [Ok config] is the machine
    configuration the spec runs on; [Error] names the offending flag.
    The CLI's spec terms call it at parse time, {!Planner.plan} at
    submit time. *)
val validate : spec -> (Config.t, string) result

(** The test-case corpus the request covers, in execution order.  Empty
    for fuzz requests (the engine generates its own candidate stream).
    Never empty for a campaign or inject spec that {!validate}
    accepts. *)
val corpus_of : spec -> Testcase.t list

(** Canonical (field, value) pairs identifying the request — the input
    to {!Store.digest_of_fields} for the job id.  Includes the code
    version, so artifacts computed by a different build never collide. *)
val digest_fields : spec -> (string * string) list

val encode_spec : Codec.enc -> spec -> unit
val decode_spec : Codec.dec -> spec
val pp_spec : Format.formatter -> spec -> unit

(** One shard's work: the request's spec and the slice of its corpus
    the shard covers ([] for fuzz, which runs the whole spec). *)
type work = { spec : spec; cases : case_desc list }

val encode_work : Codec.enc -> work -> unit
val decode_work : Codec.dec -> work
