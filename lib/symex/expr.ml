open! Import

type t = Const of Word.t | Sym of int | Bin of Instr.alu_op * t * t

let const v = Const v
let sym i = Sym i

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Int64.equal x y
  | Sym i, Sym j -> i = j
  | Bin (op, x, y), Bin (op', x', y') -> op = op' && equal x x' && equal y y'
  | _ -> false

(* Algebraic identities applied on construction.  Only rewrites that
   hold for every operand value are used, so simplification is invisible
   to both concrete and abstract evaluation.  The [srl (sll x 1) 1]
   truncation pattern the SBI models rely on is deliberately preserved:
   the solver inverts it structurally. *)
let bin op a b =
  match (op, a, b) with
  | _, Const x, Const y -> Const (Instr.eval_alu op x y)
  | (Instr.Add | Instr.Or | Instr.Xor), x, Const 0L -> x
  | (Instr.Add | Instr.Or | Instr.Xor), Const 0L, x -> x
  | Instr.Sub, x, Const 0L -> x
  | Instr.Sub, x, y when equal x y -> Const 0L
  | Instr.Xor, x, y when equal x y -> Const 0L
  | Instr.And, _, Const 0L | Instr.And, Const 0L, _ -> Const 0L
  | Instr.And, x, Const (-1L) -> x
  | Instr.And, Const (-1L), x -> x
  | (Instr.And | Instr.Or), x, y when equal x y -> x
  | Instr.Or, _, Const (-1L) | Instr.Or, Const (-1L), _ -> Const (-1L)
  | (Instr.Sll | Instr.Srl), x, Const k
    when Int64.equal (Int64.logand k 63L) 0L ->
    x
  | (Instr.Sll | Instr.Srl), Const 0L, _ -> Const 0L
  | _ -> Bin (op, a, b)

(* Symbols occurring in the term, sorted, without duplicates. *)
let syms t =
  let rec go acc = function
    | Const _ -> acc
    | Sym i -> if List.mem i acc then acc else i :: acc
    | Bin (_, a, b) -> go (go acc a) b
  in
  List.sort compare (go [] t)

let rec eval ~env = function
  | Const v -> v
  | Sym i -> env i
  | Bin (op, a, b) -> Instr.eval_alu op (eval ~env a) (eval ~env b)

let rec abstract ~env = function
  | Const v -> Domain.const v
  | Sym i -> env i
  | Bin (op, a, b) -> Domain.transfer op (abstract ~env a) (abstract ~env b)

let rec pp fmt = function
  | Const v -> Format.pp_print_string fmt (Word.to_hex v)
  | Sym i -> Format.fprintf fmt "a%d" i
  | Bin (op, a, b) ->
    Format.fprintf fmt "(%s %a %a)" (Instr.alu_name op) pp a pp b

let to_string t = Format.asprintf "%a" pp t

type rel = { cond : Instr.cond; lhs : t; rhs : t }

let rel_holds ~env r = Instr.eval_cond r.cond (eval ~env r.lhs) (eval ~env r.rhs)
let negate_rel r = { r with cond = Instr.negate_cond r.cond }

let rel_syms r =
  List.sort_uniq compare (syms r.lhs @ syms r.rhs)

let cond_symbol = function
  | Instr.Eq -> "=="
  | Instr.Ne -> "!="
  | Instr.Lt -> "<s"
  | Instr.Ge -> ">=s"

let pp_rel fmt r =
  Format.fprintf fmt "%a %s %a" pp r.lhs (cond_symbol r.cond) pp r.rhs

let rel_to_string r = Format.asprintf "%a" pp_rel r
