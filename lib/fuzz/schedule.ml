open! Import

type entry = { testcase : Testcase.t; novelty : int; born : int }

type family = {
  mutable trials : int;
  mutable reward : int;
  mutable queue : entry list;  (* newest first *)
}

type t = {
  families : (Access_path.t * family) list;  (* declaration order *)
  mutable total_trials : int;
}

let create () =
  {
    families =
      List.map (fun p -> (p, { trials = 0; reward = 0; queue = [] }))
        Access_path.all;
    total_trials = 0;
  }

let family_of t path =
  (* families is total over Access_path.all by construction *)
  List.assq path t.families

let register_exec t ~family ~reward =
  let f = family_of t family in
  f.trials <- f.trials + 1;
  f.reward <- f.reward + reward;
  t.total_trials <- t.total_trials + 1

let add_entry t entry =
  let f = family_of t entry.testcase.Testcase.path in
  f.queue <- entry :: f.queue

let pool t =
  Array.of_list
    (List.concat_map
       (fun (_, f) -> List.rev_map (fun e -> e.testcase) f.queue)
       t.families)

(* UCB1 with deterministic ties: strict improvement only, so the first
   family in declaration order wins a tie. *)
let pick_family t =
  let candidates = List.filter (fun (_, f) -> f.queue <> []) t.families in
  match candidates with
  | [] -> None
  | _ -> (
    match List.find_opt (fun (_, f) -> f.trials = 0) candidates with
    | Some (p, _) -> Some p
    | None ->
      let total = float_of_int (max 1 t.total_trials) in
      let score (f : family) =
        (float_of_int f.reward /. float_of_int f.trials)
        +. sqrt (2.0 *. log total /. float_of_int f.trials)
      in
      let best =
        List.fold_left
          (fun acc (p, f) ->
            match acc with
            | None -> Some (p, score f)
            | Some (_, s) -> if score f > s then Some (p, score f) else acc)
          None candidates
      in
      Option.map fst best)

type family_stats = {
  family : Access_path.t;
  trials : int;
  reward : int;
  queue_length : int;
  ucb : float option;
}

let stats t =
  let total = float_of_int (max 1 t.total_trials) in
  List.map
    (fun (family, (f : family)) ->
      {
        family;
        trials = f.trials;
        reward = f.reward;
        queue_length = List.length f.queue;
        ucb =
          (if f.trials = 0 then None
           else
             Some
               ((float_of_int f.reward /. float_of_int f.trials)
               +. sqrt (2.0 *. log total /. float_of_int f.trials)));
      })
    t.families

let energy ~now e =
  float_of_int e.novelty /. (1.0 +. (float_of_int (max 0 (now - e.born)) /. 32.0))

let pick_entry t ~rng_state ~now path =
  let f = family_of t path in
  match List.rev f.queue with
  | [] -> None
  | entries ->
    let idx = Rng.weighted ~rng_state (List.map (energy ~now) entries) in
    Some (List.nth entries idx)
