open! Import

type t = { root : string }

let magic = "teesec-store v1\n"

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let bucket_dir root = function
  | `Corpus -> Filename.concat root "corpus"
  | `Verdicts -> Filename.concat root "verdicts"

type bucket = Corpus | Verdicts

let poly = function Corpus -> `Corpus | Verdicts -> `Verdicts

let open_ ~root =
  mkdir_p (bucket_dir root `Corpus);
  mkdir_p (bucket_dir root `Verdicts);
  { root }

(* Two independently seeded SplitMix64 folds give a 128-bit digest —
   not cryptographic, but collision-resistant far beyond the object
   counts a store will ever hold, and dependency-free.  Sorting first
   makes the digest a function of the field {e set}, not the order the
   caller happened to build the list in. *)
let digest_of_fields fields =
  let fields = List.sort compare fields in
  let fold seed =
    List.fold_left
      (fun h (k, v) -> Strutil.hash_string (Strutil.hash_string h k) v)
      seed fields
  in
  Printf.sprintf "%016Lx%016Lx" (fold 0x7EE5EC_5E37EL) (fold 0x1234_5678_9ABCL)

let valid_digest digest =
  String.length digest > 0
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       digest

let path t bucket ~digest =
  if not (valid_digest digest) then
    invalid_arg (Printf.sprintf "Store: invalid digest %S" digest);
  Filename.concat (bucket_dir t.root (poly bucket)) digest

let put t bucket ~digest contents =
  let final = path t bucket ~digest in
  let tmp =
    Printf.sprintf "%s.tmp.%d" final (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  output_string oc magic;
  output_string oc contents;
  close_out oc;
  Sys.rename tmp final

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let get t bucket ~digest =
  let file = path t bucket ~digest in
  if not (Sys.file_exists file) then None
  else
    match read_file file with
    | s
      when String.length s >= String.length magic
           && String.sub s 0 (String.length magic) = magic ->
      Some (String.sub s (String.length magic) (String.length s - String.length magic))
    | _ -> None
    | exception Sys_error _ -> None

let mem t bucket ~digest = get t bucket ~digest <> None

let evict t bucket ~digest =
  let file = path t bucket ~digest in
  try Sys.remove file with Sys_error _ -> ()

let count t bucket =
  match Sys.readdir (bucket_dir t.root (poly bucket)) with
  | entries ->
    Array.fold_left
      (fun n e -> if valid_digest e then n + 1 else n)
      0 entries
  | exception Sys_error _ -> 0
