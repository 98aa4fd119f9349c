open! Import

type env = Domain.t array

let num_syms = 8 (* a0..a7 *)
let top_env () = Array.make num_syms Domain.top

let high_mask k =
  if k <= 0 then 0L
  else if k >= 64 then -1L
  else Int64.shift_left (-1L) (64 - k)

let low_mask k =
  if k <= 0 then 0L else if k >= 64 then -1L else Int64.lognot (high_mask (64 - k))

(* {2 Backward propagation}

   [push e d env] strengthens [env] under the requirement "the value of
   [e] lies in [d]".  Every case is an exact inversion of the
   corresponding [Instr.eval_alu] case restricted to a constant second
   operand; anything else refines nothing ([Some env]), which is sound
   because the concretiser verifies candidates concretely. *)

let rec push (e : Expr.t) (d : Domain.t) (env : env) =
  match e with
  | Expr.Const v -> if Domain.mem v d then Some env else None
  | Expr.Sym i -> (
    match Domain.meet env.(i) d with
    | None -> None
    | Some nd ->
      let env' = Array.copy env in
      env'.(i) <- nd;
      Some env')
  | Expr.Bin (Instr.Sll, e', Expr.Const k) ->
    let k = Int64.to_int (Int64.logand k 63L) in
    (* value = e' << k: its low k bits are zero... *)
    if not (Int64.equal (Int64.logand d.Domain.ones (low_mask k)) 0L) then None
    else begin
      (* ...and bits [k..63] are e''s bits [0..63-k]. *)
      let m = low_mask (64 - k) in
      let zeros = Int64.logand (Int64.shift_right_logical d.Domain.zeros k) m in
      let ones = Int64.logand (Int64.shift_right_logical d.Domain.ones k) m in
      match Domain.of_bits ~zeros ~ones with
      | None -> None
      | Some d' -> push e' d' env
    end
  | Expr.Bin (Instr.Srl, e', Expr.Const k) ->
    let k = Int64.to_int (Int64.logand k 63L) in
    (* value = e' >>u k: its top k bits are zero... *)
    if not (Int64.equal (Int64.logand d.Domain.ones (high_mask k)) 0L) then None
    else begin
      (* ...and its bits [0..63-k] are e''s bits [k..63]. *)
      let m = low_mask (64 - k) in
      let zeros = Int64.shift_left (Int64.logand d.Domain.zeros m) k in
      let ones = Int64.shift_left (Int64.logand d.Domain.ones m) k in
      match Domain.of_bits ~zeros ~ones with
      | None -> None
      | Some d' -> push e' d' env
    end
  | Expr.Bin (Instr.And, e', Expr.Const m) | Expr.Bin (Instr.And, Expr.Const m, e')
    ->
    (* Bits masked out by [m] are zero in the value; bits kept by [m]
       are e''s. *)
    if not (Int64.equal (Int64.logand d.Domain.ones (Int64.lognot m)) 0L) then
      None
    else (
      match
        Domain.of_bits
          ~zeros:(Int64.logand d.Domain.zeros m)
          ~ones:(Int64.logand d.Domain.ones m)
      with
      | None -> None
      | Some d' -> push e' d' env)
  | Expr.Bin (Instr.Or, e', Expr.Const m) | Expr.Bin (Instr.Or, Expr.Const m, e')
    ->
    if not (Int64.equal (Int64.logand d.Domain.zeros m) 0L) then None
    else (
      match
        Domain.of_bits
          ~zeros:(Int64.logand d.Domain.zeros (Int64.lognot m))
          ~ones:(Int64.logand d.Domain.ones (Int64.lognot m))
      with
      | None -> None
      | Some d' -> push e' d' env)
  | Expr.Bin (Instr.Xor, e', Expr.Const c) | Expr.Bin (Instr.Xor, Expr.Const c, e')
    ->
    (* e' = value xor c, bit by bit. *)
    let nc = Int64.lognot c in
    let zeros =
      Int64.logor (Int64.logand d.Domain.zeros nc) (Int64.logand d.Domain.ones c)
    in
    let ones =
      Int64.logor (Int64.logand d.Domain.ones nc) (Int64.logand d.Domain.zeros c)
    in
    (match Domain.of_bits ~zeros ~ones with
    | None -> None
    | Some d' -> push e' d' env)
  | Expr.Bin (Instr.Add, e', Expr.Const c) | Expr.Bin (Instr.Add, Expr.Const c, e')
    -> interval_shift e' ~lo:d.Domain.lo ~hi:d.Domain.hi ~delta:(Int64.neg c) env
  | Expr.Bin (Instr.Sub, e', Expr.Const c) ->
    interval_shift e' ~lo:d.Domain.lo ~hi:d.Domain.hi ~delta:c env
  | _ -> Some env

(* e' ∈ [lo + delta, hi + delta], skipped (soundly) on signed overflow. *)
and interval_shift e' ~lo ~hi ~delta env =
  let lo' = Int64.add lo delta and hi' = Int64.add hi delta in
  let overflows a s =
    Int64.compare (Int64.logxor a delta) 0L >= 0
    && Int64.compare (Int64.logxor a s) 0L < 0
  in
  if overflows lo lo' || overflows hi hi' then Some env
  else
    match Domain.of_interval ~lo:lo' ~hi:hi' with
    | None -> None
    | Some d' -> push e' d' env

let abstract_of env e = Expr.abstract ~env:(fun i -> env.(i)) e

let refine_vs_const e cond c env =
  match (cond : Instr.cond) with
  | Instr.Eq -> push e (Domain.const c) env
  | Instr.Ne -> (
    (* Holes are not representable; just prove unsat when [e] is already
       pinned to [c]. *)
    match Domain.as_const (abstract_of env e) with
    | Some v when Int64.equal v c -> None
    | _ -> Some env)
  | Instr.Lt ->
    if Int64.equal c Int64.min_int then None
    else (
      match Domain.of_interval ~lo:Int64.min_int ~hi:(Int64.pred c) with
      | None -> None
      | Some d -> push e d env)
  | Instr.Ge -> (
    match Domain.of_interval ~lo:c ~hi:Int64.max_int with
    | None -> None
    | Some d -> push e d env)

let refine (r : Expr.rel) env =
  match (r.Expr.lhs, r.Expr.rhs) with
  | e, Expr.Const c -> refine_vs_const e r.Expr.cond c env
  | Expr.Const c, e -> (
    (* Flip [c REL e] into a bound on [e]. *)
    match r.Expr.cond with
    | Instr.Eq -> refine_vs_const e Instr.Eq c env
    | Instr.Ne -> refine_vs_const e Instr.Ne c env
    | Instr.Lt ->
      (* c <s e  ⟺  e >=s c+1 *)
      if Int64.equal c Int64.max_int then None
      else refine_vs_const e Instr.Ge (Int64.succ c) env
    | Instr.Ge ->
      (* c >=s e  ⟺  e <s c+1 *)
      if Int64.equal c Int64.max_int then Some env
      else refine_vs_const e Instr.Lt (Int64.succ c) env)
  | l, rh when Expr.equal l rh -> (
    match r.Expr.cond with
    | Instr.Eq | Instr.Ge -> Some env
    | Instr.Ne | Instr.Lt -> None)
  | l, rh -> (
    (* Two symbolic sides: no refinement, but prune abstract
       impossibilities. *)
    let dl = abstract_of env l and dr = abstract_of env rh in
    match r.Expr.cond with
    | Instr.Eq -> (
      match Domain.meet dl dr with None -> None | Some _ -> Some env)
    | Instr.Ne -> (
      match (Domain.as_const dl, Domain.as_const dr) with
      | Some a, Some b when Int64.equal a b -> None
      | _ -> Some env)
    | Instr.Lt ->
      if Int64.compare dl.Domain.lo dr.Domain.hi >= 0 then None else Some env
    | Instr.Ge ->
      if Int64.compare dl.Domain.hi dr.Domain.lo < 0 then None else Some env)

let refine_all rels env =
  List.fold_left
    (fun acc r -> match acc with None -> None | Some env -> refine r env)
    (Some env) rels

type stats = { mutable solved : int; mutable unsat : int; mutable gave_up : int }

let stats () = { solved = 0; unsat = 0; gave_up = 0 }

(* {2 Concretisation}

   Candidates come from the refined domains plus the constants the
   constraints mention (and their neighbours); a small bounded DFS over
   the product space checks each partial assignment against every
   constraint whose symbols are all assigned, and a full assignment is
   accepted only after every constraint verified concretely. *)

let search_budget = 4096
let candidates_per_sym = 8

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let concretize ?stats:(s = stats ()) rels =
  match refine_all rels (top_env ()) with
  | None ->
    s.unsat <- s.unsat + 1;
    None
  | Some env ->
    let used =
      List.sort_uniq compare (List.concat_map Expr.rel_syms rels)
    in
    let consts_near =
      List.concat_map
        (fun (r : Expr.rel) ->
          match (r.Expr.lhs, r.Expr.rhs) with
          | _, Expr.Const c | Expr.Const c, _ ->
            [ c; Int64.pred c; Int64.succ c ]
          | _ -> [])
        rels
    in
    let cands =
      Array.init num_syms (fun i ->
          let dom = env.(i) in
          let extra = List.filter (fun v -> Domain.mem v dom) consts_near in
          let rec dedup seen = function
            | [] -> []
            | x :: rest ->
              if List.exists (Int64.equal x) seen then dedup seen rest
              else x :: dedup (x :: seen) rest
          in
          match take candidates_per_sym (dedup [] (Domain.candidates dom @ extra)) with
          | [] -> [ 0L ]  (* empty denotation slipped through: let the
                             concrete check reject it *)
          | l -> l)
    in
    let args = Array.make num_syms 0L in
    let lookup i = args.(i) in
    let attempts = ref 0 in
    let ready assigned (r : Expr.rel) =
      List.for_all (fun i -> List.mem i assigned) (Expr.rel_syms r)
    in
    let rec go assigned = function
      | [] -> List.for_all (fun r -> Expr.rel_holds ~env:lookup r) rels
      | i :: rest ->
        List.exists
          (fun v ->
            incr attempts;
            if !attempts > search_budget then false
            else begin
              args.(i) <- v;
              let assigned' = i :: assigned in
              (* Check only the constraints this assignment completed;
                 earlier ones already held, later ones are not checkable
                 yet. *)
              List.for_all
                (fun r ->
                  (not (ready assigned' r))
                  || ready assigned r
                  || Expr.rel_holds ~env:lookup r)
                rels
              && go assigned' rest
            end)
          cands.(i)
    in
    if go [] used then begin
      s.solved <- s.solved + 1;
      Some (Array.copy args)
    end
    else begin
      s.gave_up <- s.gave_up + 1;
      None
    end
