open! Import

(** Gadget fuzzer.

    Gadgets are parameterised; the fuzzer instantiates them over
    per-path parameter grids to generate the test-case corpus (§5:
    "TEESec generated 585 test cases, which cover all access paths").
    Generation is fully deterministic: secrets derive from a SplitMix64
    stream seeded per test case, so a corpus can be regenerated and any
    test case replayed exactly. *)

(** [grid path] is the parameter list the corpus instantiates for
    [path]. *)
val grid : Access_path.t -> Params.t list

(** [corpus ()] is the full deterministic corpus over all 15 access
    paths; 585 test cases, globally numbered. *)
val corpus : unit -> Testcase.t list

(** [count_per_path ()] summarises the corpus for Table 2. *)
val count_per_path : unit -> (Access_path.t * int) list

val total_cases : unit -> int

(** [random_params ~rng_state path] draws one parameter assignment from
    the path's grid (used by the randomised long-fuzzing mode).  The
    state is a SplitMix64 cursor advanced in place. *)
val random_params : rng_state:Word.t ref -> Access_path.t -> Params.t

(** [random_case ~rng_state ~id] draws one test case blindly: one
    splitmix advance selects the access path, {!random_params} selects
    the parameters.  This is the shared derivation behind
    {!random_corpus} and the guided engine's exploration draws
    (lib/fuzz), so both produce identical streams from identical
    cursors. *)
val random_case : rng_state:Word.t ref -> id:int -> Testcase.t

(** [random_corpus ~seed ~count] is the long-fuzzing mode: [count] test
    cases with paths and parameters drawn from a SplitMix64 stream.
    Deterministic in [seed]. *)
val random_corpus : seed:Word.t -> count:int -> Testcase.t list
