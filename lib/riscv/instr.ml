type reg = int

let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17
let t0 = 5
let t1 = 6
let t2 = 7

type width = Byte | Half | Word_ | Double

let width_bytes = function Byte -> 1 | Half -> 2 | Word_ -> 4 | Double -> 8

let width_name = function Byte -> "b" | Half -> "h" | Word_ -> "w" | Double -> "d"

type alu_op = Add | Sub | Xor | Or | And | Sll | Srl
type cond = Eq | Ne | Lt | Ge

type t =
  | Li of reg * Word.t
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * Word.t
  | Load of { width : width; rd : reg; base : reg; offset : Word.t }
  | Store of { width : width; rs : reg; base : reg; offset : Word.t }
  | Branch of cond * reg * reg * string
  | Jal of string
  | Csrr of reg * Csr.id
  | Csrw of Csr.id * reg
  | Ecall
  | Fence
  | Nop
  | Halt

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Xor -> "xor"
  | Or -> "or"
  | And -> "and"
  | Sll -> "sll"
  | Srl -> "srl"

let cond_name = function Eq -> "beq" | Ne -> "bne" | Lt -> "blt" | Ge -> "bge"

(* Reference ALU/branch semantics.  [Machine] executes these, and the
   symbolic evaluator in lib/symex folds them over constant operands, so
   keeping a single definition here is what makes concrete replay of a
   symbolic path exact rather than merely similar.  Shift amounts take
   the low six bits, matching RV64; comparisons are signed. *)
let eval_alu op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Xor -> Int64.logxor a b
  | Or -> Int64.logor a b
  | And -> Int64.logand a b
  | Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))

let eval_cond c a b =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Ge -> Int64.compare a b >= 0

let negate_cond = function Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt

(* Built by concatenation rather than through [Format]: every
   committed instruction is rendered into the log. *)
let reg_names = Array.init 32 (Printf.sprintf "x%d")
let reg r = if r >= 0 && r < 32 then reg_names.(r) else "x" ^ string_of_int r

let to_string = function
  | Li (rd, v) -> String.concat "" [ "li "; reg rd; ", "; Word.to_hex v ]
  | Alu (op, rd, rs1, rs2) ->
    String.concat "" [ alu_name op; " "; reg rd; ", "; reg rs1; ", "; reg rs2 ]
  | Alui (op, rd, rs1, imm) ->
    String.concat "" [ alu_name op; "i "; reg rd; ", "; reg rs1; ", "; Word.to_hex imm ]
  | Load { width; rd; base; offset } ->
    String.concat ""
      [ "l"; width_name width; " "; reg rd; ", "; Word.to_hex offset; "("; reg base; ")" ]
  | Store { width; rs; base; offset } ->
    String.concat ""
      [ "s"; width_name width; " "; reg rs; ", "; Word.to_hex offset; "("; reg base; ")" ]
  | Branch (c, rs1, rs2, label) ->
    String.concat "" [ cond_name c; " "; reg rs1; ", "; reg rs2; ", "; label ]
  | Jal label -> "j " ^ label
  | Csrr (rd, csr) -> String.concat "" [ "csrr "; reg rd; ", "; Csr.name csr ]
  | Csrw (csr, rs) -> String.concat "" [ "csrw "; Csr.name csr; ", "; reg rs ]
  | Ecall -> "ecall"
  | Fence -> "fence"
  | Nop -> "nop"
  | Halt -> "halt"

let pp fmt i = Format.pp_print_string fmt (to_string i)

let ld rd base offset = Load { width = Double; rd; base; offset }
let sd rs base offset = Store { width = Double; rs; base; offset }
