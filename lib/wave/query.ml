(* In-process query engine over decoded wave streams. *)

module Structure = Simlog.Structure

type t = Event.t array

let of_stream src = Result.map Array.of_list (Event.decode src)

let length t = Array.length t

let matches ?kind ?structure ?slot ?domain ?from_cycle ?to_cycle (e : Event.t) =
  (match kind with Some k -> e.Event.kind = k | None -> true)
  && (match structure with
     | Some s -> (
       match e.Event.structure with
       | Some s' -> Structure.equal s s'
       | None -> false)
     | None -> true)
  && (match slot with Some i -> e.Event.slot = i | None -> true)
  && (match domain with Some d -> e.Event.domain = d | None -> true)
  && (match from_cycle with Some c -> e.Event.cycle >= c | None -> true)
  && match to_cycle with Some c -> e.Event.cycle <= c | None -> true

let filter ?kind ?structure ?slot ?domain ?from_cycle ?to_cycle t =
  Array.to_list t
  |> List.filter (matches ?kind ?structure ?slot ?domain ?from_cycle ?to_cycle)

let iter f t = Array.iter f t

(* The exporter declares one signal group per element. *)
let structures t =
  List.filter
    (fun s ->
      Array.exists
        (fun (e : Event.t) ->
          match e.Event.structure with
          | Some s' -> Structure.equal s s'
          | None -> false)
        t)
    Structure.all

let cycle_span t =
  if Array.length t = 0 then None
  else begin
    let lo = ref max_int and hi = ref 0 in
    Array.iter
      (fun (e : Event.t) ->
        if e.Event.cycle < !lo then lo := e.Event.cycle;
        if e.Event.cycle > !hi then hi := e.Event.cycle)
      t;
    Some (!lo, !hi)
  end

let last_before ?kind ?structure ?slot ?domain t ~cycle =
  let best = ref None in
  Array.iter
    (fun (e : Event.t) ->
      if
        e.Event.cycle <= cycle
        && matches ?kind ?structure ?slot ?domain e
        && match !best with
           | None -> true
           | Some (b : Event.t) -> e.Event.cycle >= b.Event.cycle
      then best := Some e)
    t;
  !best
