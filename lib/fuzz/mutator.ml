open! Import

type op = Splice | Nudge | Evict_resize | Priv_shuffle | Reseed | Crossover

let all = [ Splice; Nudge; Evict_resize; Priv_shuffle; Reseed; Crossover ]

(* The gadget variants the path's parameter grid instantiates: the
   domain [Priv_shuffle] and [Splice] draw from (variants outside it have
   no defined gadget behaviour). *)
let variants_of path =
  List.sort_uniq compare
    (List.map (fun (p : Params.t) -> p.Params.variant) (Fuzzer.grid path))

(* The other access paths sharing at least one microarchitectural
   structure with [path]: the splice targets. *)
let siblings path =
  let mine = Access_path.structures path in
  List.filter
    (fun p ->
      (not (Access_path.equal p path))
      && List.exists (fun s -> List.exists (Structure.equal s) mine)
           (Access_path.structures p))
    Access_path.all

(* The eviction-depth chain: the same enclave-data load with the secret
   resident ever deeper in the hierarchy, i.e. an ever larger eviction
   set primed by the helper gadgets. *)
let evict_chain =
  [ Access_path.Exp_acc_enc_l1; Access_path.Exp_acc_enc_l2;
    Access_path.Exp_acc_enc_mem ]

let clamp_offset ~width offset = max 0 (min (64 - width) offset)

(* Coerce a variant into the target path's instantiated set, keeping the
   choice stable under re-application. *)
let coerce_variant path variant =
  let vs = variants_of path in
  List.nth vs (abs variant mod List.length vs)

let assemble_opt ~id path ~params =
  match Assembler.assemble ~id path ~params with
  | tc -> Some tc
  | exception Assembler.Invalid_chain _ -> None
  | exception Invalid_argument _ -> None

let apply op ~rng_state ~pool ~id (parent : Testcase.t) =
  let p = parent.Testcase.params in
  match op with
  | Splice -> (
    match siblings parent.Testcase.path with
    | [] -> None
    | sibs ->
      let path = Rng.pick ~rng_state sibs in
      let params =
        Params.make
          ~offset:(clamp_offset ~width:p.Params.width p.Params.offset)
          ~width:p.Params.width
          ~variant:(coerce_variant path p.Params.variant)
          ~seed:p.Params.seed ()
      in
      assemble_opt ~id path ~params)
  | Nudge ->
    let delta = Rng.pick ~rng_state [ -8; -1; 1; 8 ] in
    let offset = clamp_offset ~width:p.Params.width (p.Params.offset + delta) in
    if offset = p.Params.offset then None
    else
      assemble_opt ~id parent.Testcase.path
        ~params:(Params.make ~offset ~width:p.Params.width
                   ~variant:p.Params.variant ~seed:p.Params.seed ())
  | Evict_resize ->
    if List.exists (Access_path.equal parent.Testcase.path) evict_chain then begin
      let depth =
        let rec find i = function
          | [] -> 0
          | x :: rest ->
            if Access_path.equal x parent.Testcase.path then i
            else find (i + 1) rest
        in
        find 0 evict_chain
      in
      let delta = Rng.pick ~rng_state [ -1; 1 ] in
      let depth' = max 0 (min (List.length evict_chain - 1) (depth + delta)) in
      if depth' = depth then None
      else
        let path = List.nth evict_chain depth' in
        assemble_opt ~id path
          ~params:(Params.make ~offset:p.Params.offset ~width:p.Params.width
                     ~variant:(coerce_variant path p.Params.variant)
                     ~seed:p.Params.seed ())
    end
    else begin
      (* No eviction set to resize: resize the access footprint. *)
      let widths = List.filter (fun w -> w <> p.Params.width) Params.valid_widths in
      let width = Rng.pick ~rng_state widths in
      assemble_opt ~id parent.Testcase.path
        ~params:(Params.make
                   ~offset:(clamp_offset ~width p.Params.offset)
                   ~width ~variant:p.Params.variant ~seed:p.Params.seed ())
    end
  | Priv_shuffle -> (
    match
      List.filter (fun v -> v <> p.Params.variant)
        (variants_of parent.Testcase.path)
    with
    | [] -> None
    | vs ->
      let variant = Rng.pick ~rng_state vs in
      assemble_opt ~id parent.Testcase.path
        ~params:(Params.make ~offset:p.Params.offset ~width:p.Params.width
                   ~variant ~seed:p.Params.seed ()))
  | Reseed ->
    let seed = Rng.word ~rng_state in
    assemble_opt ~id parent.Testcase.path
      ~params:(Params.make ~offset:p.Params.offset ~width:p.Params.width
                 ~variant:p.Params.variant ~seed ())
  | Crossover ->
    if Array.length pool = 0 then None
    else begin
      let partner = pool.(Rng.below ~rng_state (Array.length pool)) in
      let q = partner.Testcase.params in
      let width = q.Params.width in
      let params =
        Params.make
          ~offset:(clamp_offset ~width q.Params.offset)
          ~width ~variant:p.Params.variant
          ~seed:(Word.splitmix64 (Int64.logxor p.Params.seed q.Params.seed))
          ()
      in
      assemble_opt ~id parent.Testcase.path ~params
    end
