open! Import

let pp fmt (r : Engine.report) =
  let o = r.Engine.options in
  Format.fprintf fmt
    "%s fuzzing campaign on %s: %d/%d test cases executed (seed %s, batch %d)@."
    (if o.Engine.energy > 0 then
       Printf.sprintf "Coverage-guided (energy %d%%)" o.Engine.energy
     else "Blind random")
    r.Engine.config.Config.name r.Engine.executed o.Engine.budget
    (Word.to_hex o.Engine.seed) o.Engine.batch;
  Format.fprintf fmt "  coverage: %d edges (%d bucket bits)@."
    r.Engine.edges_covered r.Engine.bits_covered;
  Format.fprintf fmt "  corpus: %d interesting entries, distils to %d@."
    r.Engine.corpus_entries r.Engine.distilled;
  Format.fprintf fmt "  discoveries:@.";
  List.iter
    (fun (d : Engine.discovery) ->
      Format.fprintf fmt "    %-3s at test case %4d  (%s)@."
        (Case.to_string d.Engine.case) d.Engine.at d.Engine.testcase)
    r.Engine.discoveries;
  (match r.Engine.cases_to_full_table3 with
  | Some n ->
    Format.fprintf fmt "  full Table 3 coverage reached after %d test cases@." n
  | None ->
    Format.fprintf fmt
      "  full Table 3 coverage NOT reached within the budget (%d/%d cases)@."
        (List.length r.Engine.found)
        (List.length
           (List.filter
              (fun c -> Case.expected c r.Engine.config.Config.kind)
              Case.all)));
  Format.fprintf fmt "  residue warnings: %d; simulated cycles: %d@."
    r.Engine.residue_warnings r.Engine.total_cycles

(* {2 JSON} *)

let json_discovery (d : Engine.discovery) =
  Json.Obj
    [
      ("case", Str (Case.to_string d.Engine.case));
      ("at", Json.int d.Engine.at);
      ("testcase", Str d.Engine.testcase);
    ]

let to_json_string (r : Engine.report) =
  let o = r.Engine.options in
  Json.to_document
    (Obj
       [
         ( "core",
           Str
             (String.lowercase_ascii
                (Config.core_kind_to_string r.Engine.config.Config.kind)) );
         ("mode", Str (if o.Engine.energy > 0 then "guided" else "random"));
         ("seed", Str (Word.to_hex o.Engine.seed));
         ("budget", Json.int o.Engine.budget);
         ("batch", Json.int o.Engine.batch);
         ("energy", Json.int o.Engine.energy);
         ("executed", Json.int r.Engine.executed);
         ("edges_covered", Json.int r.Engine.edges_covered);
         ("bits_covered", Json.int r.Engine.bits_covered);
         ("corpus_entries", Json.int r.Engine.corpus_entries);
         ("distilled", Json.int r.Engine.distilled);
         ( "found",
           Json.list (fun c -> Json.Str (Case.to_string c)) r.Engine.found );
         ("discoveries", Json.list json_discovery r.Engine.discoveries);
         ( "cases_to_full_table3",
           Json.option Json.int r.Engine.cases_to_full_table3 );
         ("residue_warnings", Json.int r.Engine.residue_warnings);
         ("total_cycles", Json.int r.Engine.total_cycles);
         ("provenance", Json.list Provenance.to_value r.Engine.provenance);
       ])

let save_json ~path r = Obs.write_file ~path (to_json_string r)
