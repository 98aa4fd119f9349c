open! Import

type shard = {
  index : int;
  digest : string;
  corpus_digest : string;
  family : string;
  work : Request.work;
}

let default_max_shard_cases = 64

(* The slice digest folds ids, paths and parameters in order: a shard's
   cases are an ordered slice of the corpus, and order is semantic (the
   merge replays it). *)
let cases_digest cases =
  let fields =
    List.mapi
      (fun i (cd : Request.case_desc) ->
        ( Printf.sprintf "case%06d" i,
          Printf.sprintf "%d:%s:%d:%d:%d:%s" cd.Request.cd_id cd.Request.cd_path
            cd.Request.cd_offset cd.Request.cd_width cd.Request.cd_variant
            (Word.to_hex cd.Request.cd_seed) ))
      cases
  in
  Store.digest_of_fields (("cases", string_of_int (List.length cases)) :: fields)

(* Split [cases] into contiguous chunks, breaking at [cap] and — unless
   [by_family] is off (random corpora) — at access-path boundaries. *)
let chunk ~by_family ~cap cases =
  let flush chunk chunks =
    match chunk with [] -> chunks | c -> List.rev c :: chunks
  in
  let rec go current chunks = function
    | [] -> List.rev (flush current chunks)
    | (cd : Request.case_desc) :: rest ->
      let break =
        match current with
        | [] -> false
        | last :: _ ->
          List.length current >= cap
          || (by_family && last.Request.cd_path <> cd.Request.cd_path)
      in
      if break then go [ cd ] (flush current chunks) rest
      else go (cd :: current) chunks rest
  in
  go [] [] cases

let family_of ~by_family = function
  | (cd : Request.case_desc) :: _ when by_family -> cd.Request.cd_path
  | _ -> "seed-range"

(* Shard digests deliberately exclude the shard index and the corpus
   kind: the key is the work content (code version, config, options,
   case slice), so the same family slice reached through two different
   requests — e.g. the representative slice and the full grid — shares
   one verdict object. *)
let shard_digest ~config ~kind_fields ~corpus_digest =
  Store.digest_of_fields
    ([
       ("version", Protocol_version.code_version);
       ("config", Printf.sprintf "%016Lx" (Config.hash config));
       ("cases", corpus_digest);
     ]
    @ kind_fields)

(* What a shard digest folds in besides config and cases: the kind and
   every option that changes a shard's output. *)
let kind_fields spec =
  match spec with
  | Request.Campaign _ -> [ ("kind", "campaign") ]
  | Request.Inject { faults; seed; _ } ->
    [ ("kind", "inject"); ("faults", string_of_int faults); ("seed", Word.to_hex seed) ]
  | Request.Fuzz _ ->
    ("kind", "fuzz")
    :: List.filter
         (fun (k, _) -> k <> "version" && k <> "kind" && k <> "core")
         (Request.digest_fields spec)

let plan ?(max_shard_cases = default_max_shard_cases) spec =
  if max_shard_cases < 1 then Error "max_shard_cases must be >= 1"
  else
    Request.validate spec
    |> Result.map (fun config ->
           let kind_fields = kind_fields spec in
           let shard index ~family ~corpus_digest cases =
             {
               index;
               digest = shard_digest ~config ~kind_fields ~corpus_digest;
               corpus_digest;
               family;
               work = { Request.spec; cases };
             }
           in
           match spec with
           | Request.Fuzz _ -> [ shard 0 ~family:"fuzz" ~corpus_digest:"" [] ]
           | Request.Campaign _ | Request.Inject _ ->
             let by_family =
               match spec with
               | Request.Campaign { corpus = Request.Random _; _ } -> false
               | _ -> true
             in
             Request.corpus_of spec
             |> List.map Request.case_desc_of_testcase
             |> chunk ~by_family ~cap:max_shard_cases
             |> List.mapi (fun index cases ->
                    shard index
                      ~family:(family_of ~by_family cases)
                      ~corpus_digest:(cases_digest cases) cases))

let corpus_text (work : Request.work) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# teesec shard corpus v1\n";
  Buffer.add_string buf "# id path offset width variant seed\n";
  List.iter
    (fun (cd : Request.case_desc) ->
      Printf.bprintf buf "%d %s %d %d %d 0x%Lx\n" cd.Request.cd_id
        cd.Request.cd_path cd.Request.cd_offset cd.Request.cd_width
        cd.Request.cd_variant cd.Request.cd_seed)
    work.Request.cases;
  Buffer.contents buf
