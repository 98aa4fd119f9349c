open! Import

type case_desc = {
  cd_id : int;
  cd_path : string;
  cd_offset : int;
  cd_width : int;
  cd_variant : int;
  cd_seed : Word.t;
}

let case_desc_of_testcase (tc : Testcase.t) =
  let p = tc.Testcase.params in
  {
    cd_id = tc.Testcase.id;
    cd_path = Access_path.to_string tc.Testcase.path;
    cd_offset = p.Params.offset;
    cd_width = p.Params.width;
    cd_variant = p.Params.variant;
    cd_seed = p.Params.seed;
  }

let path_of_name name =
  List.find_opt
    (fun p ->
      String.lowercase_ascii (Access_path.to_string p)
      = String.lowercase_ascii name)
    Access_path.all

let testcase_of_case_desc cd =
  match path_of_name cd.cd_path with
  | None ->
    invalid_arg (Printf.sprintf "Request: unknown access path %S" cd.cd_path)
  | Some path ->
    Assembler.assemble ~id:cd.cd_id path
      ~params:
        (Params.make ~offset:cd.cd_offset ~width:cd.cd_width
           ~variant:cd.cd_variant ~seed:cd.cd_seed ())

let case_desc_equal a b =
  a.cd_id = b.cd_id && a.cd_path = b.cd_path && a.cd_offset = b.cd_offset
  && a.cd_width = b.cd_width && a.cd_variant = b.cd_variant
  && Int64.equal a.cd_seed b.cd_seed

type corpus_kind = Slice | Full | Random of { count : int; seed : Word.t }

type spec =
  | Campaign of { core : string; mitigations : string list; corpus : corpus_kind }
  | Inject of { core : string; faults : int; seed : Word.t; full : bool }
  | Fuzz of { core : string; options : Engine.options }

let kind = function
  | Campaign _ -> "campaign"
  | Inject _ -> "inject"
  | Fuzz _ -> "fuzz"

let mitigation_of_name name =
  List.find_opt
    (fun m -> Mitigation.to_string m = String.lowercase_ascii name)
    (Mitigation.all @ Mitigation.extensions)

(* The ranges the engines assert ([Engine.run], [Fault_plan.sample]),
   checked up front so a bad value is a usage error on either transport
   instead of an exception inside a worker.  Messages name the flag the
   parameter comes from: both front ends take the same flags. *)
let check_ranges = function
  | Campaign { corpus = Random { count; _ }; _ } when count < 1 ->
    Error (Printf.sprintf "--random must be >= 1, got %d" count)
  | Inject { faults; _ } when faults < 0 ->
    Error (Printf.sprintf "--faults must be >= 0, got %d" faults)
  | Fuzz { options = { Engine.budget; _ }; _ } when budget < 0 ->
    Error (Printf.sprintf "--budget must be >= 0, got %d" budget)
  | Fuzz { options = { Engine.batch; _ }; _ } when batch < 1 ->
    Error (Printf.sprintf "--batch must be >= 1, got %d" batch)
  | Fuzz { options = { Engine.energy; _ }; _ } when energy < 0 || energy > 100 ->
    Error (Printf.sprintf "--energy must be in 0..100, got %d" energy)
  | Campaign _ | Inject _ | Fuzz _ -> Ok ()

let resolve_config ~core ~mitigations =
  match Config.of_core_name (String.lowercase_ascii core) with
  | None ->
    Error (Printf.sprintf "--core: unknown core %S (use boom or xiangshan)" core)
  | Some config -> (
    let resolved = List.map (fun n -> (n, mitigation_of_name n)) mitigations in
    match List.find_opt (fun (_, m) -> m = None) resolved with
    | Some (n, _) -> Error (Printf.sprintf "--mitigation: unknown mitigation %S" n)
    | None ->
      Ok
        (Config.with_mitigations config
           (List.filter_map (fun (_, m) -> m) resolved)))

let validate spec =
  Result.bind (check_ranges spec) (fun () ->
      match spec with
      | Campaign { core; mitigations; _ } -> resolve_config ~core ~mitigations
      | Inject { core; _ } | Fuzz { core; _ } ->
        resolve_config ~core ~mitigations:[])

let corpus_of = function
  | Campaign { corpus = Slice; _ } | Inject { full = false; _ } ->
    Mitigation_eval.slice ()
  | Campaign { corpus = Full; _ } | Inject { full = true; _ } -> Fuzzer.corpus ()
  | Campaign { corpus = Random { count; seed }; _ } ->
    Fuzzer.random_corpus ~seed ~count
  | Fuzz _ -> []

let corpus_kind_string = function
  | Slice -> "slice"
  | Full -> "full"
  | Random { count; seed } ->
    Printf.sprintf "random:%d:%s" count (Word.to_hex seed)

let digest_fields spec =
  let base =
    [ ("version", Protocol_version.code_version); ("kind", kind spec) ]
  in
  base
  @
  match spec with
  | Campaign { core; mitigations; corpus } ->
    [
      ("core", String.lowercase_ascii core);
      ("mitigations", String.concat "+" (List.map String.lowercase_ascii mitigations));
      ("corpus", corpus_kind_string corpus);
    ]
  | Inject { core; faults; seed; full } ->
    [
      ("core", String.lowercase_ascii core);
      ("faults", string_of_int faults);
      ("seed", Word.to_hex seed);
      ("corpus", if full then "full" else "slice");
    ]
  | Fuzz { core; options } ->
    [
      ("core", String.lowercase_ascii core);
      ("seed", Word.to_hex options.Engine.seed);
      ("budget", string_of_int options.Engine.budget);
      ("batch", string_of_int options.Engine.batch);
      ("energy", string_of_int options.Engine.energy);
      ("stop_on_full", string_of_bool options.Engine.stop_on_full);
    ]

(* {2 Codecs} *)

let encode_case_desc b cd =
  Codec.int b cd.cd_id;
  Codec.str b cd.cd_path;
  Codec.int b cd.cd_offset;
  Codec.int b cd.cd_width;
  Codec.int b cd.cd_variant;
  Codec.i64 b cd.cd_seed

let decode_case_desc d =
  let cd_id = Codec.int' d in
  let cd_path = Codec.str' d in
  let cd_offset = Codec.int' d in
  let cd_width = Codec.int' d in
  let cd_variant = Codec.int' d in
  let cd_seed = Codec.i64' d in
  { cd_id; cd_path; cd_offset; cd_width; cd_variant; cd_seed }

let encode_options b (o : Engine.options) =
  Codec.i64 b o.Engine.seed;
  Codec.int b o.Engine.budget;
  Codec.int b o.Engine.batch;
  Codec.int b o.Engine.energy;
  Codec.bool b o.Engine.stop_on_full

let decode_options d =
  let seed = Codec.i64' d in
  let budget = Codec.int' d in
  let batch = Codec.int' d in
  let energy = Codec.int' d in
  let stop_on_full = Codec.bool' d in
  { Engine.seed; budget; batch; energy; stop_on_full }

let encode_corpus_kind b = function
  | Slice -> Codec.u8 b 0
  | Full -> Codec.u8 b 1
  | Random { count; seed } ->
    Codec.u8 b 2;
    Codec.int b count;
    Codec.i64 b seed

let decode_corpus_kind d =
  match Codec.u8' d with
  | 0 -> Slice
  | 1 -> Full
  | 2 ->
    let count = Codec.int' d in
    let seed = Codec.i64' d in
    Random { count; seed }
  | t -> raise (Codec.Decode_error (Printf.sprintf "unknown corpus kind tag %d" t))

let encode_spec b = function
  | Campaign { core; mitigations; corpus } ->
    Codec.u8 b 0;
    Codec.str b core;
    Codec.list b Codec.str mitigations;
    encode_corpus_kind b corpus
  | Inject { core; faults; seed; full } ->
    Codec.u8 b 1;
    Codec.str b core;
    Codec.int b faults;
    Codec.i64 b seed;
    Codec.bool b full
  | Fuzz { core; options } ->
    Codec.u8 b 2;
    Codec.str b core;
    encode_options b options

let decode_spec d =
  match Codec.u8' d with
  | 0 ->
    let core = Codec.str' d in
    let mitigations = Codec.list' d Codec.str' in
    let corpus = decode_corpus_kind d in
    Campaign { core; mitigations; corpus }
  | 1 ->
    let core = Codec.str' d in
    let faults = Codec.int' d in
    let seed = Codec.i64' d in
    let full = Codec.bool' d in
    Inject { core; faults; seed; full }
  | 2 ->
    let core = Codec.str' d in
    let options = decode_options d in
    Fuzz { core; options }
  | t -> raise (Codec.Decode_error (Printf.sprintf "unknown spec tag %d" t))

let pp_spec fmt spec =
  List.iter
    (fun (k, v) -> if k <> "version" then Format.fprintf fmt "%s=%s " k v)
    (digest_fields spec)

type work = { spec : spec; cases : case_desc list }

let encode_work b { spec; cases } =
  encode_spec b spec;
  Codec.list b encode_case_desc cases

let decode_work d =
  let spec = decode_spec d in
  let cases = Codec.list' d decode_case_desc in
  { spec; cases }
