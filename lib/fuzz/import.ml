(* Shared aliases into the substrate and framework libraries. *)
module Word = Riscv.Word
module Log = Simlog.Log
module Structure = Simlog.Structure
module Edge = Simlog.Edge
module Config = Uarch.Config
module Access_path = Teesec.Access_path
module Params = Teesec.Params
module Testcase = Teesec.Testcase
module Assembler = Teesec.Assembler
module Fuzzer = Teesec.Fuzzer
module Campaign = Teesec.Campaign
module Case = Teesec.Case
module Checker = Teesec.Checker
module Provenance = Teesec.Provenance
module Runner = Teesec.Runner
module Snapshot = Teesec.Snapshot
module Json = Obs.Json
