open Import

(** Branch target buffers: a direct-mapped micro-BTB and a set-associative
    FTB, indexed and tagged on partial PC bits.

    Because only a partial tag is compared, two branches whose PCs differ
    only in the excluded high bits map to the same entry and alias — the
    mechanism behind leakage case M2 (Figure 7): the host primes an entry,
    the enclave branch updates it, and a host probe observes the outcome
    as a prediction hit/miss.  Entries record which execution context
    installed them so the checker can detect enclave residue. *)

type entry = {
  tag : Word.t;
  target : Word.t;
  taken : bool;
  owner : Exec_context.t;  (** Context that installed the entry. *)
  note : string;
      (** How the log describes the install: ["tag=… taken=… owner=…"],
          formatted once by {!update}. *)
}

type t

(** [create ~entries ~tag_bits ~ways] builds a BTB with [entries] total
    entries organised into [entries/ways] sets.  [ways = 1] gives the
    direct-mapped uBTB.  With [tagged_by_owner] (the eIBRS-style
    mitigation the paper proposes in §8), every entry is additionally
    tagged with the context that installed it and {!predict} only hits
    same-owner entries. *)
val create : ?tagged_by_owner:bool -> entries:int -> tag_bits:int -> ways:int -> unit -> t

(** Valid-slots-only snapshot form (see {!Cache.capture}); prediction
    entries are immutable and shared with the source.  [restore_capture]
    invalidates the slots [into] holds and reinstalls the captured ones,
    walking only valid slots; it raises [Invalid_argument] on a geometry
    mismatch. *)
type capture

val capture : t -> capture
val restore_capture : capture -> into:t -> unit

(** [index_of t ~pc] and [tag_of t ~pc] expose the PC slicing, used by
    the M2 gadget to construct aliasing branch pairs. *)
val index_of : t -> pc:Word.t -> int

val tag_of : t -> pc:Word.t -> Word.t

(** [lookup t ~pc] is the raw entry for the branch at [pc], ignoring
    owner tags (structure inspection). *)
val lookup : t -> pc:Word.t -> entry option

(** [predict t ~pc ~ctx] is the entry the predictor would actually use
    for a fetch by [ctx]: with owner tagging enabled, entries installed
    by a different context do not hit. *)
val predict : t -> pc:Word.t -> ctx:Exec_context.t -> entry option

(** [update t ~pc ~target ~taken ~owner] installs or refreshes the entry
    for [pc], returning the set index and entry written. *)
val update :
  t -> pc:Word.t -> target:Word.t -> taken:bool -> owner:Exec_context.t ->
  int * entry

(** [aliases t ~pc1 ~pc2] is true when the two PCs map to the same set
    and partial tag — i.e. they collide. *)
val aliases : t -> pc1:Word.t -> pc2:Word.t -> bool

val flush : t -> unit

(** [occupancy t] is the number of valid entries, read from the
    occupancy index ({!Occupancy}). *)
val occupancy : t -> int

(** [snapshot t log] appends the valid entries to the log's open record
    in set then way order, slot = set index.  Each entry's note is its
    install note, plus [" id-tagged"] under owner tagging, built once by
    {!update}: a snapshot formats nothing, and snapshotting an empty BTB
    allocates nothing. *)
val snapshot : t -> Log.t -> unit
