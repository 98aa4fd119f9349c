open Import

(** Physical integer register file.

    Out-of-order cores write results into physical registers at
    write-back time, {e before} the instruction is known to commit.  A
    squashed instruction's value therefore still lands here — this is the
    observable surface for the Meltdown-type cases D4–D8 and for the
    lazy CSR read of M1.  The model keeps a round-robin free list and a
    record of the context that produced each value. *)

type t

val create : regs:int -> t

(** [copy t] is a deep copy: mutating either file never affects the
    other. *)
val copy : t -> t

(** [restore_into src ~into] overwrites [into] with [src] without
    allocating.  Raises [Invalid_argument] on a size mismatch. *)
val restore_into : t -> into:t -> unit

(** [writeback t ~value ~ctx ~transient] allocates a physical register
    for a produced [value] and returns its index.  [transient] marks
    values produced by instructions that are later squashed. *)
val writeback : t -> value:Word.t -> ctx:Exec_context.t -> transient:bool -> int

(** [holds_value t v] is true when any allocated physical register holds
    [v]. *)
val holds_value : t -> Word.t -> bool

(** [clear t] zeroes the whole file (no real core does this on a context
    switch; used by tests). *)
val clear : t -> unit

(** [snapshot t log] appends the registers in use to the log's open
    record. *)
val snapshot : t -> Log.t -> unit

(** [corrupt_bit t ~select ~bit] flips one bit of one allocated physical
    register for fault injection ([select] picks the register, both
    wrap).  Returns the register index and its new value, or [None] when
    no register is allocated. *)
val corrupt_bit : t -> select:int -> bit:int -> (int * Word.t) option
