open! Import

type state = Fresh | Running | Stopped | Exited | Destroyed

let state_to_string = function
  | Fresh -> "fresh"
  | Running -> "running"
  | Stopped -> "stopped"
  | Exited -> "exited"
  | Destroyed -> "destroyed"

type t = {
  id : int;
  base : Word.t;
  size : int;
  mutable state : state;
  mutable measurement : Word.t;
  mutable saved_regs : Word.t array option;
}

let create ~id ~base ~size =
  { id; base; size; state = Fresh; measurement = 0L; saved_regs = None }

let copy t =
  {
    id = t.id;
    base = t.base;
    size = t.size;
    state = t.state;
    measurement = t.measurement;
    saved_regs = Option.map Array.copy t.saved_regs;
  }

let legal from_state to_state =
  match (from_state, to_state) with
  | Fresh, Running
  | Running, Stopped
  | Running, Exited
  | Stopped, Running
  | Stopped, Destroyed
  | Exited, Destroyed ->
    true
  | (Fresh | Running | Stopped | Exited | Destroyed), _ -> false

let transition t ~to_state =
  if legal t.state to_state then begin
    t.state <- to_state;
    Ok ()
  end
  else Error t.state

let can_destroy t = match t.state with Stopped | Exited -> true | Fresh | Running | Destroyed -> false

let contains t ~addr =
  Int64.unsigned_compare addr t.base >= 0
  && Int64.unsigned_compare addr (Int64.add t.base (Int64.of_int t.size)) < 0
