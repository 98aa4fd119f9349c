open Import

(** The RTL simulation log.

    This is TEESec's central artefact: a cycle-stamped record of the
    contents of every microarchitectural structure listed in the
    verification plan, as an instrumented RTL simulation would emit it.
    The instrumented simulator appends {!event}s as structures change;
    full {!Snapshot} events are recorded at every context switch so that
    the checker can detect both data being {e fetched into} structures
    while outside enclave mode and data {e remaining} there across a
    boundary (principle P1).

    {b Representation.}  The log is an append-only byte buffer of
    fixed-width fields (the layout is documented in [log.ml]) plus a
    byte heap for strings, so a recorded event retains no OCaml
    record, list, option or boxed integer: the garbage collector never
    scans a log, and a case's log costs its bytes and nothing more.
    Readers walk it through a {!Cursor}, decoding only the fields they
    need; {!to_list} materialises records for printers and tests only.

    {b Wave records.}  A log created with [~wave:true] is also the
    machine's waveform sink: each tapped structure fill, eviction, flush
    or hit and each PMP check is a wave record in the same record
    sequence, so {!mark} and {!reset_to} carry it like any other.  Wave
    records are not simulation records: {!iter}, {!iter_since},
    {!length}, {!to_list} and cursor indices skip them, so every reader
    of simulation records sees the same records with taps on or off.
    lib/wave reads them with {!iter_waves}. *)

(** Why a value entered a structure — the access path provenance.  The
    checker uses this to classify a finding into the paper's leakage
    cases D1–D8. *)
type origin =
  | Explicit_load
  | Explicit_store
  | Prefetch  (** Implicit next-line prefetcher access. *)
  | Ptw_walk  (** Implicit page-table-walker access. *)
  | Store_drain  (** Store buffer draining into the cache. *)
  | Memset_destroy  (** Security-monitor memset on enclave destroy. *)
  | Csr_read
  | Context_save  (** Register spill during trap/interrupt handling. *)
  | Refill  (** Cache refill completing. *)
  | Branch_exec  (** Branch predictor update at branch execution. *)
  | Writeback  (** Ordinary result write-back into the register file. *)
  | Fault_inject
      (** Data planted by the deterministic fault injector (lib/inject) —
          lets the checker attribute corrupted values to the fault, not
          to an architectural access path. *)

val origin_to_string : origin -> string

(** Every access-path provenance, in declaration order. *)
val all_origins : origin list

(** [origin_of_string s] inverts [origin_to_string]. *)
val origin_of_string : string -> origin option

(** [origin_to_code o] is [o]'s position in {!all_origins}. *)
val origin_to_code : origin -> int

(** [origin_of_code c] inverts {!origin_to_code}; raises
    [Invalid_argument] outside [0 .. origin_count - 1]. *)
val origin_of_code : int -> origin

val origin_count : int

(** One logged location inside a structure. *)
type entry = {
  slot : int;  (** Index within the structure (way, entry number...). *)
  addr : Word.t option;  (** Physical address tag, when the structure has one. *)
  data : Word.t;
  note : string;  (** Free-form detail (e.g. ["tag=0x12 target=0x80..."]). *)
}

val entry : ?slot:int -> ?addr:Word.t -> ?note:string -> Word.t -> entry

type event =
  | Write of { structure : Structure.t; entries : entry list; origin : origin }
      (** New data entered the structure. *)
  | Snapshot of { structure : Structure.t; entries : entry list }
      (** Full contents, recorded at context-switch boundaries. *)
  | Mode_switch of { from_ctx : Exec_context.t; to_ctx : Exec_context.t }
  | Commit of { pc : Word.t; instr : string }
  | Exception_raised of { cause : string; pc : Word.t }
  | Fault_injected of { structure : Structure.t option; detail : string }
      (** A fault-injection campaign perturbed the machine here:
          [structure] names the corrupted storage element ([None] for
          machine-global faults such as a stuck permission check), and
          [detail] describes the applied fault.  The event makes every
          injected perturbation attributable when diffing a faulted log
          against its clean baseline. *)

type record = { cycle : int; ctx : Exec_context.t; event : event }

type t

(** [create ?wave ()] is an empty log; with [~wave:true] (default false)
    it keeps wave records. *)
val create : ?wave:bool -> unit -> t

(** [tapped t] is true when [t] keeps wave records. *)
val tapped : t -> bool

(** {2 Recording} *)

(** [record t ~cycle ~ctx event] appends one event. *)
val record : t -> cycle:int -> ctx:Exec_context.t -> event -> unit

(** [begin_write t ~cycle ~ctx ~structure ~origin] appends a [Write]
    record with no entries; the [add_*] functions below append its
    entries.  Together they are [record] without building the event. *)
val begin_write :
  t -> cycle:int -> ctx:Exec_context.t -> structure:Structure.t -> origin:origin -> unit

(** [begin_snapshot t ~cycle ~ctx ~structure] is {!begin_write} for a
    [Snapshot] record. *)
val begin_snapshot : t -> cycle:int -> ctx:Exec_context.t -> structure:Structure.t -> unit

(** [add_entry t ~slot ~note data] appends an entry without an address to
    the record opened by the last [begin_*] call.  Raises
    [Invalid_argument] when another record, a {!mark} or a {!reset_to}
    came in between. *)
val add_entry : t -> slot:int -> note:string -> Word.t -> unit

(** [add_addr_entry] is {!add_entry} with an address. *)
val add_addr_entry : t -> slot:int -> addr:Word.t -> note:string -> Word.t -> unit

(** [add_entry_of_bytes t ~slot ~note src off] is {!add_entry} with the
    data read from the 64-bit word at byte [off] of [src] (native byte
    order): a caller that keeps its words unboxed logs them without
    allocating. *)
val add_entry_of_bytes : t -> slot:int -> note:string -> Bytes.t -> int -> unit

(** [add_line t ~slot ~addr words] appends one entry per word of a cache
    line: slot [slot], address [addr + 8i], no note. *)
val add_line : t -> slot:int -> addr:Word.t -> Word.t array -> unit

(** [add_words t ~addr words] is {!add_line} with slot [i] for word [i]. *)
val add_words : t -> addr:Word.t -> Word.t array -> unit

(** [add_wave t payload n] appends a wave record holding the first [n]
    bytes of [payload], and nothing when [t] is not {!tapped}.  The log
    only carries them: lib/wave encodes and decodes them
    ([Wave.Event.tap]).  Like any record it closes the open [Write] or
    [Snapshot].  Raises [Invalid_argument] when [n] exceeds 255. *)
val add_wave : t -> Bytes.t -> int -> unit

val length : t -> int

(** A saved log position, for the snapshot engine. *)
type mark

(** [mark t] captures the log's contents, so the mark stays valid
    whatever the log records or restores later.  A mark shares the
    record bytes of the mark [t] last took or was reset to, and copies
    only the records appended since, once, as a new immutable segment;
    the string heap is copied whole when those records added a string.
    Marking twice with nothing appended in between copies nothing. *)
val mark : t -> mark

(** [reset_to t m] makes the log hold exactly what it held at [mark]
    time; records appended since are discarded. *)
val reset_to : t -> mark -> unit

(** {2 Reading} *)

type kind =
  | Write_kind
  | Snapshot_kind
  | Mode_switch_kind
  | Commit_kind
  | Exception_kind
  | Fault_kind

(** A set of words, matched against logged entry data without boxing. *)
module Values : sig
  type t

  val of_list : Word.t list -> t

  (** The number of slots: every {!slot} lies in [0 .. capacity - 1]. *)
  val capacity : t -> int

  (** [slot v w] is the slot holding [w], or [-1] when [w] is not a
      member.  Distinct members have distinct slots. *)
  val slot : t -> Word.t -> int
end

(** A position on one record of a log.  A cursor handed to an {!iter}
    callback is only valid during that call. *)
module Cursor : sig
  type t

  (** Position of the record in the log, from 0. *)
  val index : t -> int

  val kind : t -> kind
  val cycle : t -> int
  val ctx : t -> Exec_context.t

  (** The raw header fields behind {!ctx}, {!structure} and {!origin},
      read without decoding: {!context_of_code} rebuilds the context,
      [Structure.of_code] and {!origin_of_code} the others.  The
      structure code is meaningful on a [Write] or [Snapshot], the
      origin code on a [Write] only. *)
  val ctx_tag : t -> int

  val ctx_id : t -> int
  val structure_code : t -> int
  val origin_code : t -> int

  (** The structure of a [Write] or [Snapshot]; raises
      [Invalid_argument] on other records. *)
  val structure : t -> Structure.t

  (** The origin of a [Write]; raises [Invalid_argument] otherwise. *)
  val origin : t -> origin

  (** The number of entries ([0] unless [Write] or [Snapshot]). *)
  val entries : t -> int

  val slot : t -> int -> int
  val data : t -> int -> Word.t

  (** [note_ref c i] is a reference to entry [i]'s note, valid for the
      log's lifetime: {!note_at} reads it. *)
  val note_ref : t -> int -> int

  (** [note_contains c i ~needle] is [Strutil]-style substring search in
      entry [i]'s note, without decoding it. *)
  val note_contains : t -> int -> needle:string -> bool

  (** [find_data c v] is the first entry whose data is [v], or [-1]. *)
  val find_data : t -> Word.t -> int

  (** [next_match c values i] is the first entry at or after [i] whose
      data is in [values], or [-1].  Entries are compared in place. *)
  val next_match : t -> Values.t -> int -> int

  (** [value_slot c values i] is the {!Values.slot} of entry [i]'s data,
      or [-1] when it is not in [values]; compared in place. *)
  val value_slot : t -> Values.t -> int -> int

  (** The pc of a [Commit] or [Exception_raised]. *)
  val pc : t -> Word.t

  (** The context a [Mode_switch] leaves. *)
  val from_ctx : t -> Exec_context.t

  (** The context a [Mode_switch] enters. *)
  val to_ctx : t -> Exec_context.t

  (** Whether the record is a wave record; only {!iter_waves} hands out
      cursors on one, and only {!copy_wave} reads it. *)
  val is_wave : t -> bool

  (** [copy_wave buf c] appends the payload of wave record [c] to [buf]. *)
  val copy_wave : Buffer.t -> t -> unit

  (** The whole record, decoded. *)
  val record : t -> record
end

(** [iter t f] calls [f] on every record in chronological order.  [f]
    must not append to [t]. *)
val iter : t -> (Cursor.t -> unit) -> unit

(** [iter_since t m f] is {!iter} over only the records appended after
    mark [m]; cursor indices continue from [m]'s length.  [m] must be
    a mark of [t] that [t] still extends — taken by {!mark} or restored
    by {!reset_to}, with no reset to another mark since.  Raises
    [Invalid_argument] when [t] is shorter than [m]. *)
val iter_since : t -> mark -> (Cursor.t -> unit) -> unit

(** [iter_waves t f] is {!iter} that also calls [f] on every wave
    record, in sequence with the simulation records. *)
val iter_waves : t -> (Cursor.t -> unit) -> unit

(** [note_at t r] is the note that {!Cursor.note_ref} referenced as [r]
    on a record of [t]. *)
val note_at : t -> int -> string

(** [context_of_code ~tag ~id] is the context {!Cursor.ctx} decodes from
    these raw fields; shared, not allocated, for enclave ids below 64. *)
val context_of_code : tag:int -> id:int -> Exec_context.t

(** Records in chronological order — for printers, the reference checker
    and tests; readers on the simulation paths use {!iter}. *)
val to_list : t -> record list

(** [occurrences t v] lists the records in which value [v] appears. *)
val occurrences : t -> Word.t -> record list

(** [last_commit_before t ~cycle] is the most recent committed PC at or
    before [cycle], used by checker reports. *)
val last_commit_before : t -> cycle:int -> Word.t option

val pp_record : Format.formatter -> record -> unit

(** [pp] prints the whole log, one record per line — the equivalent of
    the artifact's [SimLog.txt]. *)
val pp : Format.formatter -> t -> unit
