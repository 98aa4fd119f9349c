(* Shared aliases into the substrate libraries. *)
module Word = Riscv.Word
module Log = Simlog.Log
module Structure = Simlog.Structure
module Machine = Uarch.Machine
module Config = Uarch.Config
module Campaign = Teesec.Campaign
module Case = Teesec.Case
module Checker = Teesec.Checker
module Provenance = Teesec.Provenance
module Runner = Teesec.Runner
module Snapshot = Teesec.Snapshot
module Testcase = Teesec.Testcase
module Env = Teesec.Env
module Json = Obs.Json
