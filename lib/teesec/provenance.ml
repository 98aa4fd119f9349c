open! Import

type access = {
  a_gadget : string;
  a_origin : string;
  a_cycle : int;
  a_structure : string;
  a_slot : int;
}

type t = {
  p_id : string;
  p_core : string;
  p_case : string;
  p_testcase : string;
  p_testcase_id : int;
  p_structure : string;
  p_detection : string;
  p_check : string;
  p_cycle : int;
  p_ctx : string;
  p_write : access option;
  p_window : (int * int) option;
  p_secret : string;
  p_last_pc : string;
  p_note : string;
}

let equal (a : t) (b : t) = a = b

let case_string (f : Checker.finding) =
  match f.Checker.case with Some c -> Case.to_string c | None -> "residue"

let check_of_finding (f : Checker.finding) =
  match f.Checker.case with
  | Some Case.M1 -> "hpc-delta"
  | Some Case.M2 -> "btb-residue"
  | Some _ -> "data-leakage"
  | None -> "residue-scan"

(* The latest write of each finding's evidence into the finding's
   structure at or before the detection cycle: the secret value for data
   findings, the first enclave-owned entry for metadata ones.  For a
   Fetched finding this is the observed write itself; for a Residue
   finding it is the access the residue survives from.  One cursor pass
   serves every finding.  A write is looked at only when it goes into
   some finding's structure, and data entries are matched in place, so
   only the writes that carry some finding's evidence are decoded. *)
let find_writes log (findings : Checker.finding array) =
  let best = Array.make (Array.length findings) None in
  let values =
    Log.Values.of_list
      (Array.to_list findings
      |> List.filter_map (fun (f : Checker.finding) ->
             Option.map (fun s -> s.Secret.value) f.Checker.secret))
  in
  (* Per structure code: bit 0 when a data finding is in it, bit 1 when
     a metadata finding is. *)
  let wanted = Array.make Structure.count 0 in
  Array.iter
    (fun (f : Checker.finding) ->
      let code = Structure.to_code f.Checker.structure in
      wanted.(code) <- (wanted.(code) lor if f.Checker.secret = None then 2 else 1))
    findings;
  Log.iter log (fun c ->
      if Log.Cursor.kind c = Log.Write_kind then begin
        let want = wanted.(Log.Cursor.structure_code c) in
        if
          want land 2 <> 0 || (want land 1 <> 0 && Log.Cursor.next_match c values 0 >= 0)
        then begin
          let structure = Log.Cursor.structure c in
          let cycle = Log.Cursor.cycle c in
          Array.iteri
            (fun k (f : Checker.finding) ->
              if cycle <= f.Checker.cycle && Structure.equal structure f.Checker.structure
              then
                let slot =
                  match f.Checker.secret with
                  | Some s -> Log.Cursor.find_data c s.Secret.value
                  | None ->
                    let n = Log.Cursor.entries c in
                    let rec first i =
                      if i >= n then -1
                      else if Log.Cursor.note_contains c i ~needle:"owner=enclave" then i
                      else first (i + 1)
                    in
                    first 0
                in
                if slot >= 0 then
                  match best.(k) with
                  | Some (c', _, _) when c' > cycle -> ()
                  | _ ->
                    best.(k) <-
                      Some (cycle, Log.Cursor.origin c, Log.Cursor.slot c slot))
            findings
        end
      end);
  best

(* Writes after the fork point come from the access gadget; earlier ones
   from the setup prefix, which we name after its final helper (the one
   that typically seeds the secret).  Finer attribution would need
   per-gadget cycle spans, which the snapshot-restored prefix path does
   not replay. *)
let gadget_at (tc : Testcase.t) ~fork_cycle ~cycle =
  let prefix, access = Testcase.split tc in
  if cycle > fork_cycle then Gadget.name access
  else
    match List.rev prefix with
    | prev :: _ -> "prefix:" ^ Gadget.name prev
    | [] -> Gadget.name access

let of_finding ~(config : Config.t) ~(outcome : Runner.outcome) (f : Checker.finding)
    write =
  let tc = outcome.Runner.testcase in
  let structure = Structure.to_string f.Checker.structure in
  let case = case_string f in
  (* The short core name ("boom"), not the display name — ids must
     round-trip through {!parse_id} and {!Config.of_core_name}. *)
  let core =
    String.lowercase_ascii (Config.core_kind_to_string config.Config.kind)
  in
  let write =
    Option.map
      (fun (cycle, origin, slot) ->
        {
          a_gadget = gadget_at tc ~fork_cycle:outcome.Runner.fork_cycle ~cycle;
          a_origin = Log.origin_to_string origin;
          a_cycle = cycle;
          a_structure = structure;
          a_slot = slot;
        })
      write
  in
  {
    p_id = Printf.sprintf "%s/%s/%d/%s" core case tc.Testcase.id structure;
    p_core = core;
    p_case = case;
    p_testcase = Testcase.name tc;
    p_testcase_id = tc.Testcase.id;
    p_structure = structure;
    p_detection = Checker.detection_to_string f.Checker.detection;
    p_check = check_of_finding f;
    p_cycle = f.Checker.cycle;
    p_ctx = Exec_context.to_string f.Checker.ctx;
    p_write = write;
    p_window = Option.map (fun w -> (w.a_cycle, f.Checker.cycle)) write;
    p_secret =
      (match f.Checker.secret with
      | Some s -> Word.to_hex s.Secret.value
      | None -> "");
    p_last_pc =
      (match f.Checker.last_pc with Some pc -> Word.to_hex pc | None -> "");
    p_note = f.Checker.note;
  }

let of_outcome ~config (outcome : Runner.outcome) findings =
  match findings with
  | [] -> []
  | findings ->
    let findings = Array.of_list findings in
    let writes = find_writes outcome.Runner.log findings in
    Array.to_list (Array.map2 (of_finding ~config ~outcome) findings writes)

let parse_id s =
  match String.split_on_char '/' s with
  | [ core; case; tcid; structure ] -> (
    match int_of_string_opt tcid with
    | None -> Error (Printf.sprintf "bad test-case id %S" tcid)
    | Some id -> (
      match Structure.of_string structure with
      | None -> Error (Printf.sprintf "unknown structure %S" structure)
      | Some st -> Ok (core, case, id, st)))
  | _ -> Error "finding id must be core/case/testcase-id/structure"

let pp_chain fmt p =
  Format.fprintf fmt "finding %s@." p.p_id;
  Format.fprintf fmt "  test case: %s@." p.p_testcase;
  let step = ref 0 in
  let line fmt_ =
    incr step;
    Format.fprintf fmt "  %d. " !step;
    Format.kfprintf (fun fmt -> Format.fprintf fmt "@.") fmt fmt_
  in
  (match p.p_write with
  | Some w ->
    line "write: gadget %s (%s) fills %s slot %d at cycle %d%s" w.a_gadget
      (if w.a_origin = "" then "unknown origin" else w.a_origin)
      w.a_structure w.a_slot w.a_cycle
      (if p.p_secret = "" then "" else " with secret " ^ p.p_secret)
  | None ->
    line "write: no logged write into %s carries the evidence (%s)"
      p.p_structure p.p_note);
  (match p.p_window with
  | Some (a, b) when b > a ->
    line "residue: the value survives in %s for %d cycles (cycle %d..%d)"
      p.p_structure (b - a) a b
  | Some (a, _) -> line "residue: observed at the writing cycle %d" a
  | None -> ());
  line "observed: %s by the %s check in context %s at cycle %d" p.p_detection
    p.p_check p.p_ctx p.p_cycle;
  (match p.p_last_pc with
  | "" -> ()
  | pc -> line "last committed instruction: pc %s" pc);
  Format.fprintf fmt "  verdict: %s%s@." p.p_case
    (if p.p_note = "" || p.p_write = None then "" else " (" ^ p.p_note ^ ")")

(* {2 JSON} — rendered and read through {!Obs.Json}. *)

let access_to_value a =
  Obs.Json.Obj
    [
      ("gadget", Str a.a_gadget);
      ("origin", Str a.a_origin);
      ("cycle", Obs.Json.int a.a_cycle);
      ("structure", Str a.a_structure);
      ("slot", Obs.Json.int a.a_slot);
    ]

let to_value p =
  Obs.Json.Obj
    [
      ("id", Str p.p_id);
      ("core", Str p.p_core);
      ("case", Str p.p_case);
      ("testcase", Str p.p_testcase);
      ("testcase_id", Obs.Json.int p.p_testcase_id);
      ("structure", Str p.p_structure);
      ("detection", Str p.p_detection);
      ("check", Str p.p_check);
      ("cycle", Obs.Json.int p.p_cycle);
      ("ctx", Str p.p_ctx);
      ("write", Obs.Json.option access_to_value p.p_write);
      ( "window",
        Obs.Json.option
          (fun (a, b) -> Obs.Json.Arr [ Obs.Json.int a; Obs.Json.int b ])
          p.p_window );
      ("secret", Str p.p_secret);
      ("last_pc", Str p.p_last_pc);
      ("note", Str p.p_note);
    ]

let to_json p = Obs.Json.to_line (to_value p)
let list_to_json ps = Obs.Json.to_line (Obs.Json.list to_value ps)

let str_field j key =
  match Obs.Json.string_field key j with
  | Some s -> s
  | None -> failwith (Printf.sprintf "missing string field %S" key)

let int_field j key =
  match Obs.Json.number_field key j with
  | Some n -> int_of_float n
  | None -> failwith (Printf.sprintf "missing number field %S" key)

let access_of_value j =
  {
    a_gadget = str_field j "gadget";
    a_origin = str_field j "origin";
    a_cycle = int_field j "cycle";
    a_structure = str_field j "structure";
    a_slot = int_field j "slot";
  }

let of_value j =
  {
    p_id = str_field j "id";
    p_core = str_field j "core";
    p_case = str_field j "case";
    p_testcase = str_field j "testcase";
    p_testcase_id = int_field j "testcase_id";
    p_structure = str_field j "structure";
    p_detection = str_field j "detection";
    p_check = str_field j "check";
    p_cycle = int_field j "cycle";
    p_ctx = str_field j "ctx";
    p_write =
      (match Obs.Json.member "write" j with
      | Some (Obs.Json.Obj _ as a) -> Some (access_of_value a)
      | _ -> None);
    p_window =
      (match Obs.Json.member "window" j with
      | Some (Obs.Json.Arr [ Obs.Json.Num a; Obs.Json.Num b ]) ->
        Some (int_of_float a, int_of_float b)
      | _ -> None);
    p_secret = str_field j "secret";
    p_last_pc = str_field j "last_pc";
    p_note = str_field j "note";
  }

let of_json s =
  match Obs.Json.parse s with
  | Error e -> Error e
  | Ok j -> ( try Ok (of_value j) with Failure m -> Error m)

let list_of_json s =
  match Obs.Json.parse s with
  | Error e -> Error e
  | Ok j -> (
    match Obs.Json.to_list j with
    | None -> Error "expected a JSON array of provenance records"
    | Some l -> ( try Ok (List.map of_value l) with Failure m -> Error m))
