open! Import

(** Test gadgets.

    A gadget couples a few parameterised assembly instructions (or SBI
    interactions) with its contract over the abstract execution model:
    [pre] must hold for the gadget to be applicable, [post] describes the
    state after it runs, and [emit] performs the concrete actions on the
    test environment.  The three kinds follow §4.2: setup gadgets manage
    the TEE API surface, helper gadgets establish microarchitectural
    preconditions and seed secrets, access gadgets exercise one memory
    access path. *)

type kind = Setup | Helper | Access of Access_path.t

(** Which components of {!Params.t} a gadget's [emit] reads.  Declared
    per gadget so the snapshot engine can key a shared setup prefix on
    only the parameters that actually shape it — cases differing in
    other components then share one snapshot. *)
type param_dep = Dep_offset | Dep_width | Dep_variant | Dep_seed

type t = {
  name : string;
  kind : kind;
  description : string;
  param_deps : param_dep list;
      (** Parameter components [emit] depends on (beyond the machine
          state it receives). *)
  pre : Exec_model.t -> bool;
  post : Exec_model.t -> unit;
  emit : Env.t -> unit;
}

val name : t -> string
val access_path : t -> Access_path.t option

(** [applicable g model] — [pre] holds. *)
val applicable : t -> Exec_model.t -> bool

(** [apply g model] — run [post] on the abstract state (assembler use). *)
val apply : t -> Exec_model.t -> unit
