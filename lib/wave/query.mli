(** In-process query engine over a decoded wave stream.

    The VCD exporter iterates it to lay out signals.  Filters compose as
    a conjunction; an omitted field matches everything. *)

type t

(** [of_stream src] decodes a stream; corrupt input is an [Error] (streams
    also arrive from the service). *)
val of_stream : string -> (t, string) result

val length : t -> int
val iter : (Event.t -> unit) -> t -> unit

val filter :
  ?kind:Event.kind ->
  ?structure:Simlog.Structure.t ->
  ?slot:int ->
  ?domain:int ->
  ?from_cycle:int ->
  ?to_cycle:int ->
  t ->
  Event.t list

(** The structures that appear in the stream, in [Structure.all] order. *)
val structures : t -> Simlog.Structure.t list

(** [Some (first, last)] cycle of the stream; [None] when it is empty. *)
val cycle_span : t -> (int * int) option

(** The latest event at or before [cycle] that matches the filter. *)
val last_before :
  ?kind:Event.kind ->
  ?structure:Simlog.Structure.t ->
  ?slot:int ->
  ?domain:int ->
  t ->
  cycle:int ->
  Event.t option
