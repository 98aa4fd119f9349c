open! Import

type kind = Setup | Helper | Access of Access_path.t

(* Which test-case parameters a gadget's emitted behaviour actually
   depends on.  The snapshot engine keys shared prefixes on the union of
   the prefix gadgets' dependencies, so two cases whose parameters differ
   only in components no prefix gadget reads share one snapshot. *)
type param_dep = Dep_offset | Dep_width | Dep_variant | Dep_seed

type t = {
  name : string;
  kind : kind;
  description : string;
  param_deps : param_dep list;
  pre : Exec_model.t -> bool;
  post : Exec_model.t -> unit;
  emit : Env.t -> unit;
}

let name t = t.name

let access_path t =
  match t.kind with Access p -> Some p | Setup | Helper -> None

let applicable t model = t.pre model
let apply t model = t.post model
