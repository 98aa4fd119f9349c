(* Choosing countermeasures: measured closure vs measured cost.

   The paper's section 8 lists possible mitigations per leakage case and
   notes that deployments can pick a subset matching their threat model.
   This example makes the trade-off concrete on both cores: every
   combination of up to two knobs is evaluated against the campaign
   (which cases does it close?) and against the reference workload
   (what does it cost?).

   Two structural conclusions fall out, matching the paper:
   - on BOOM, no combination closes D1: the unchecked prefetcher path
     cannot be flushed away and needs a hardware fix;
   - the section-8 tagging proposal (tag-bpu-hpc) plus
     clear-illegal-data-returns dominates flush-everything on XiangShan:
     full closure at roughly zero overhead instead of ~+30%.

   Run with: dune exec examples/mitigation_tuning.exe *)

let () =
  List.iter
    (fun (config : Uarch.Config.t) ->
      let result = Teesec.Recommend.evaluate config in
      Format.printf "%a@." Teesec.Recommend.pp_result result;
      let best = Teesec.Recommend.best result in
      Format.printf "  -> recommended: %s (residual: %s, overhead %+.1f%%)@.@."
        (if best.Teesec.Recommend.mitigations = [] then "(none)"
         else
           String.concat " + "
             (List.map Uarch.Mitigation.to_string best.Teesec.Recommend.mitigations))
        (if best.Teesec.Recommend.residual = [] then "none"
         else
           String.concat ","
             (List.map Teesec.Case.to_string best.Teesec.Recommend.residual))
        best.Teesec.Recommend.overhead_pct)
    [ Uarch.Config.boom; Uarch.Config.xiangshan ]
