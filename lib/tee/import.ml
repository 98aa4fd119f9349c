(* Shared aliases into the substrate libraries. *)
module Word = Riscv.Word
module Priv = Riscv.Priv
module Pmp = Riscv.Pmp
module Csr = Riscv.Csr
module Memory = Riscv.Memory
module Instr = Riscv.Instr
module Program = Riscv.Program
module Page_table = Riscv.Page_table
module Log = Simlog.Log
module Edge = Simlog.Edge
module Structure = Simlog.Structure
module Exec_context = Simlog.Exec_context
module Machine = Uarch.Machine
module Config = Uarch.Config
module Mitigation = Uarch.Mitigation
