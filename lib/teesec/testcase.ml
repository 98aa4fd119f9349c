open! Import

type t = {
  id : int;
  path : Access_path.t;
  gadgets : Gadget.t list;
  params : Params.t;
}

let split t =
  let rec go acc = function
    | [] -> invalid_arg "Testcase.split: test case with no gadgets"
    | [ last ] -> (List.rev acc, last)
    | g :: rest -> go (g :: acc) rest
  in
  go [] t.gadgets

let name t =
  Printf.sprintf "#%d %s [%s]" t.id (Access_path.to_string t.path)
    (Params.to_string t.params)

let pp fmt t =
  Format.fprintf fmt "%s:" (name t);
  List.iter (fun g -> Format.fprintf fmt " %s" (Gadget.name g)) t.gadgets
