open Import

(** Typed mutation operators over test cases.

    Each operator derives a new candidate from a corpus parent (and, for
    crossover, a second corpus entry), drawing every decision from the
    engine's SplitMix64 cursor so a whole campaign replays from one
    seed.  Mutants are re-assembled through {!Assembler.assemble}, so an
    operator can never produce a test case whose gadget chain violates
    its preconditions — impossible combinations yield [None] and the
    engine falls back to a blind draw. *)

type op =
  | Splice  (** Re-target a sibling access path sharing a structure. *)
  | Nudge  (** Shift the secret offset by ±1 or ±8 bytes. *)
  | Evict_resize
      (** Move along the L1 → L2 → memory eviction-depth chain (deeper
          or shallower eviction set); for paths outside the chain,
          resize the access width instead. *)
  | Priv_shuffle
      (** Re-draw the gadget variant, which selects the privilege
          sequence / behaviour variant of the gadget chain. *)
  | Reseed  (** Fresh secret seed (new leaked values, same shape). *)
  | Crossover  (** Blend parameters of two corpus entries. *)

val all : op list

(** [apply op ~rng_state ~pool ~id parent] derives a mutant with the
    given corpus entry as parent; [pool] is the current corpus queue
    (crossover partners).  [None] when the operator does not apply
    (e.g. a single-variant path under [Priv_shuffle]) or the mutant
    fails chain validation. *)
val apply :
  op ->
  rng_state:Word.t ref ->
  pool:Testcase.t array ->
  id:int ->
  Testcase.t ->
  Testcase.t option
