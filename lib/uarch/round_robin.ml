(* Copy-on-write pointers, documented in round_robin.mli. *)

type t = { ways : int; mutable next : int array; mutable shared : bool }
type capture = int array

let create ~sets ~ways = { ways; next = Array.make sets 0; shared = false }

let capture t =
  t.shared <- true;
  t.next

let restore t c =
  t.next <- c;
  t.shared <- true

let victim t set =
  if t.shared then begin
    t.next <- Array.copy t.next;
    t.shared <- false
  end;
  let w = t.next.(set) in
  t.next.(set) <- (w + 1) mod t.ways;
  w
