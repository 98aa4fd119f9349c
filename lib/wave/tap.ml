(* The per-machine wave tap.

   Mirrors the [Obs.t] discipline exactly: the tap is either {!noop} —
   every emission is a single branch that does nothing, so the
   taps-off hot path costs one predictable-not-taken compare — or
   active, appending encoded events to a growable buffer owned by the
   machine.

   {b Splice invariant}: the buffer supports {!mark}/{!reset_to} the
   same way [Simlog.Log] does, and [Uarch.Machine.snapshot]/[restore]
   carry a tap mark alongside the log mark.  A mark captures the
   prefix {e bytes}, not a length: snapshot slots outlive unrelated
   cases run on the same pooled machine, so truncating to a saved
   length could keep another prefix's events.  After any test case the
   buffer therefore holds exactly prefix-events + that case's
   suffix-events, byte-identical whether the prefix was replayed from
   scratch or restored from a snapshot — the wave differential suite
   pins this. *)

type t = Noop | Active of { buf : Buffer.t }

let noop = Noop
let create () = Active { buf = Buffer.create 4096 }
let enabled = function Noop -> false | Active _ -> true

type mark = string

let mark = function Noop -> "" | Active a -> Buffer.contents a.buf

let reset_to t m =
  match t with
  | Noop -> ()
  | Active a ->
    Buffer.clear a.buf;
    Buffer.add_string a.buf m

let contents = function Noop -> "" | Active a -> Buffer.contents a.buf

(* [emit] takes every field as a required argument: evaluating them at
   a call site costs nothing when the tap is off (they are ints and
   immutable constructors already in registers), and the active arm
   never allocates beyond the buffer itself. *)
let emit t ~kind ~cycle ~structure ~slot ~ctx ~value =
  match t with
  | Noop -> ()
  | Active a ->
    Event.encode a.buf ~kind ~cycle
      ~structure_id:(Event.structure_to_int structure)
      ~slot
      ~domain:(Event.domain_of_ctx ctx)
      ~value

let pmp_check t ~cycle ~ctx ~allowed =
  match t with
  | Noop -> ()
  | Active a ->
    Event.encode a.buf ~kind:Event.Pmp_check ~cycle
      ~structure_id:Event.no_structure ~slot:0
      ~domain:(Event.domain_of_ctx ctx)
      ~value:(if allowed then 1 else 0)

let ctx_switch t ~cycle ~from_ctx ~to_ctx =
  match t with
  | Noop -> ()
  | Active a ->
    Event.encode a.buf ~kind:Event.Ctx_switch ~cycle
      ~structure_id:Event.no_structure ~slot:0
      ~domain:(Event.domain_of_ctx from_ctx)
      ~value:(Event.domain_of_ctx to_ctx)
