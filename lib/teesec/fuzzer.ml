open! Import

(* Deterministic seed stream: test case [n] gets seed splitmix(base + n). *)
let seed_for n = Word.splitmix64 (Int64.add 0x5EED_0000L (Int64.of_int n))

let offsets8 = [ 0; 8; 16; 24; 32; 40; 48; 56 ]
let widths = [ 1; 2; 4; 8 ]

let cartesian ~offsets ~widths ~variants ~seeds =
  List.concat_map
    (fun offset ->
      List.concat_map
        (fun width ->
          List.concat_map
            (fun variant ->
              List.map
                (fun seed_idx ->
                  Params.make ~offset ~width ~variant ~seed:(seed_for seed_idx) ())
                (List.init seeds (fun i -> (offset * 131) + (width * 17) + (variant * 7) + i)))
            variants)
        widths)
    offsets

(* Misaligned straddling combinations: (width, sub-offset) pairs that
   cross an 8-byte granule, replicated over the first granules of the
   secret line, plus one width-8 extra to exercise an even sub-offset. *)
let misaligned_params =
  let combos =
    List.concat_map (fun off -> [ (8, off) ]) [ 1; 3; 5; 7 ]
    @ List.map (fun off -> (4, off)) [ 5; 6; 7 ]
    @ [ (2, 7) ]
  in
  let base =
    List.concat_map
      (fun granule ->
        List.map
          (fun (width, sub) ->
            Params.make ~offset:((granule * 8) + sub) ~width ~variant:0
              ~seed:(seed_for ((granule * 100) + (width * 10) + sub))
              ())
          combos)
      [ 0; 1; 2 ]
  in
  base @ [ Params.make ~offset:26 ~width:8 ~variant:0 ~seed:(seed_for 999) () ]

let grid = function
  | Access_path.Exp_acc_enc_l1 ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0; 1; 2; 3 ] ~seeds:1
  | Access_path.Exp_acc_enc_l2 ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0; 1 ] ~seeds:1
  | Access_path.Exp_acc_enc_mem ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0 ] ~seeds:1
  | Access_path.Exp_acc_enc_stb ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0; 1 ] ~seeds:1
  | Access_path.Exp_acc_enc_misaligned -> misaligned_params
  | Access_path.Exp_acc_sm ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0 ] ~seeds:1
  | Access_path.Exp_acc_cross_enclave ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0 ] ~seeds:1
  | Access_path.Exp_acc_host_from_enclave ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0 ] ~seeds:1
  | Access_path.Exp_store_enc ->
    cartesian ~offsets:offsets8 ~widths ~variants:[ 0 ] ~seeds:1
  | Access_path.Imp_acc_pref ->
    cartesian ~offsets:offsets8 ~widths:[ 4; 8 ] ~variants:[ 0; 1 ] ~seeds:1
  | Access_path.Imp_acc_ptw_root ->
    cartesian ~offsets:offsets8 ~widths:[ 8 ] ~variants:[ 0; 1 ] ~seeds:2
  | Access_path.Imp_acc_ptw_legit ->
    cartesian ~offsets:offsets8 ~widths:[ 8 ] ~variants:[ 0; 1 ] ~seeds:1
  | Access_path.Imp_acc_destroy_memset ->
    cartesian ~offsets:[ 0 ] ~widths:[ 8 ] ~variants:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
      ~seeds:2
  | Access_path.Meta_hpc ->
    cartesian ~offsets:[ 0 ] ~widths:[ 8 ] ~variants:[ 0; 1; 2; 3; 4; 5 ] ~seeds:4
  | Access_path.Meta_btb ->
    cartesian ~offsets:[ 0 ] ~widths:[ 8 ] ~variants:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
      ~seeds:3

let corpus () =
  let id = ref 0 in
  List.concat_map
    (fun path ->
      List.map
        (fun params ->
          let tc = Assembler.assemble ~id:!id path ~params in
          incr id;
          tc)
        (grid path))
    Access_path.all

let count_per_path () =
  List.map (fun path -> (path, List.length (grid path))) Access_path.all

let total_cases () =
  List.fold_left (fun n (_, c) -> n + c) 0 (count_per_path ())

let random_params ~rng_state path =
  let g = grid path in
  rng_state := Word.splitmix64 !rng_state;
  let idx = Int64.to_int (Int64.rem (Int64.logand !rng_state Int64.max_int)
                            (Int64.of_int (List.length g))) in
  List.nth g idx

(* The shared blind-draw derivation: one splitmix advance picks the
   path, [random_params] advances once more for the parameters.  The
   guided engine (lib/fuzz) calls this for its exploration draws, which
   is what makes "mutation energy zero" degenerate to [random_corpus]
   exactly (same rng stream, same ids). *)
let random_case ~rng_state ~id =
  let paths = Array.of_list Access_path.all in
  rng_state := Word.splitmix64 !rng_state;
  let path =
    paths.(Int64.to_int
             (Int64.rem (Int64.logand !rng_state Int64.max_int)
                (Int64.of_int (Array.length paths))))
  in
  let params = random_params ~rng_state path in
  Assembler.assemble ~id path ~params

let random_corpus ~seed ~count =
  let rng_state = ref seed in
  (* Explicit left-to-right loop: the rng cursor must advance in id
     order, which [List.init]'s evaluation order does not promise. *)
  let rec go id acc =
    if id >= count then List.rev acc
    else go (id + 1) (random_case ~rng_state ~id :: acc)
  in
  go 0 []
