(* Smoke tests for the command tree (lib/cli).

   The binary is a one-liner over [Cli.Teesec_cmds], so evaluating the
   library's command tree against a synthetic argv exercises exactly
   what ships: every subcommand accepts [--help] and exits 0, and an
   unknown flag reports the subcommand's usage instead of raising. *)

module Cmds = Cli.Teesec_cmds

let contains ~needle haystack =
  Teesec.Strutil.contains_substring ~needle haystack

let test_command_list () =
  Alcotest.(check bool) "fuzz is a subcommand" true
    (List.mem "fuzz" Cmds.command_names);
  Alcotest.(check bool) "corpus-min is a subcommand" true
    (List.mem "corpus-min" Cmds.command_names);
  Alcotest.(check bool) "at least a dozen subcommands" true
    (List.length Cmds.command_names >= 12)

let test_top_level_help () =
  let code, out = Cmds.eval_captured ~argv:[| "teesec_cli"; "--help" |] in
  Alcotest.(check int) "--help exits 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level help lists %s" name)
        true (contains ~needle:name out))
    Cmds.command_names

let test_every_subcommand_help () =
  List.iter
    (fun name ->
      let code, out =
        Cmds.eval_captured ~argv:[| "teesec_cli"; name; "--help" |]
      in
      Alcotest.(check int) (Printf.sprintf "%s --help exits 0" name) 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s --help mentions the subcommand" name)
        true (contains ~needle:name out))
    Cmds.command_names

let test_unknown_flag_prints_usage () =
  List.iter
    (fun name ->
      let code, out =
        Cmds.eval_captured
          ~argv:[| "teesec_cli"; name; "--definitely-not-a-flag" |]
      in
      Alcotest.(check int)
        (Printf.sprintf "%s rejects unknown flag with a CLI error" name)
        124 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s unknown-flag message names the flag" name)
        true
        (contains ~needle:"definitely-not-a-flag" out);
      Alcotest.(check bool)
        (Printf.sprintf "%s unknown-flag message shows its usage" name)
        true
        (contains ~needle:("teesec_cli " ^ name) out))
    Cmds.command_names

let test_unknown_subcommand () =
  let code, out =
    Cmds.eval_captured ~argv:[| "teesec_cli"; "no-such-command" |]
  in
  Alcotest.(check int) "unknown subcommand is a CLI error" 124 code;
  Alcotest.(check bool) "message names the bogus command" true
    (contains ~needle:"no-such-command" out)

let test_fuzz_rejects_bad_energy () =
  let code, out =
    Cmds.eval_captured ~argv:[| "teesec_cli"; "fuzz"; "--energy"; "250" |]
  in
  Alcotest.(check int) "energy out of range is a CLI error" 124 code;
  Alcotest.(check bool) "message explains the range" true
    (contains ~needle:"0" out)

(* Every bad spec value is a usage error naming its flag, and the same
   one on the one-shot subcommand and on submit — which therefore never
   reaches a daemon with it. *)
let test_bad_spec_values () =
  List.iter
    (fun (kind, args, flag) ->
      List.iter
        (fun argv ->
          let code, out =
            Cmds.eval_captured ~argv:(Array.of_list ("teesec_cli" :: argv))
          in
          let line = String.concat " " argv in
          Alcotest.(check int) (line ^ " is a usage error") 124 code;
          Alcotest.(check bool) (line ^ " names " ^ flag) true
            (contains ~needle:flag out))
        [ kind :: args; "submit" :: "--kind" :: kind :: args ])
    [
      ("fuzz", [ "--energy"; "150" ], "--energy");
      ("fuzz", [ "--batch"; "0" ], "--batch");
      ("fuzz", [ "--budget=-1" ], "--budget");
      ("inject", [ "--faults=-1" ], "--faults");
      ("campaign", [ "--random"; "0" ], "--random");
    ]

(* symex's path budget is range-checked like every spec value: a usage
   error naming the flag, not an in-process exit. *)
let test_symex_rejects_bad_max_paths () =
  List.iter
    (fun args ->
      let code, out = Cmds.eval_captured ~argv:(Array.of_list ("teesec_cli" :: "symex" :: args)) in
      let line = String.concat " " ("symex" :: args) in
      Alcotest.(check int) (line ^ " is a usage error") 124 code;
      Alcotest.(check bool) (line ^ " names --max-paths") true
        (contains ~needle:"--max-paths" out))
    [ [ "--max-paths"; "0" ]; [ "--max-paths=-1" ] ]

(* The long options a plain --help page lists: option lines are the ones
   indented by exactly seven spaces. *)
let options_of help =
  String.split_on_char '\n' help
  |> List.concat_map (fun line ->
         if String.length line > 8 && String.sub line 0 8 = "       -" then
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char ',')
           |> List.filter_map (fun tok ->
                  match String.split_on_char '=' tok with
                  | name :: _ when String.length name > 2 && String.sub name 0 2 = "--" ->
                    Some name
                  | _ -> None)
         else [])

(* The flags only the one-shot subcommands take: execution knobs that
   never change an artifact, and their own outputs. *)
let one_shot_only =
  [
    "--jobs"; "--snapshot"; "--no-snapshot"; "--metrics"; "--quiet"; "--csv";
    "--provenance"; "--json"; "--save-corpus"; "--corpus";
  ]

let test_submit_takes_every_spec_flag () =
  let help name =
    snd (Cmds.eval_captured ~argv:[| "teesec_cli"; name; "--help" |])
  in
  let submit = options_of (help "submit") in
  List.iter
    (fun flag ->
      Alcotest.(check bool) ("submit --help lists " ^ flag) true
        (List.mem flag submit))
    [
      "--mitigation"; "--full"; "--random"; "--fuzz-seed"; "--faults"; "--seed";
      "--budget"; "--batch"; "--energy"; "--stop-on-full";
    ];
  List.iter
    (fun name ->
      List.iter
        (fun flag ->
          if not (List.mem flag one_shot_only) then
            Alcotest.(check bool)
              (Printf.sprintf "submit takes %s's %s" name flag)
              true (List.mem flag submit))
        (options_of (help name)))
    [ "campaign"; "inject"; "fuzz" ]

(* The `version` subcommand prints Serve.Protocol.version_string, and
   scripts parse it to pick a matching client — pin the format here. *)
let test_version_string () =
  Alcotest.(check bool) "version is a subcommand" true
    (List.mem "version" Cmds.command_names);
  let v = Serve.Protocol.version_string in
  Alcotest.(check string) "version string format"
    (Printf.sprintf "teesec %s (protocol %d)" Serve.Protocol.build_version
       Serve.Protocol.protocol_version)
    v

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "command list" `Quick test_command_list;
          Alcotest.test_case "top-level --help" `Quick test_top_level_help;
          Alcotest.test_case "every subcommand --help exits 0" `Quick
            test_every_subcommand_help;
          Alcotest.test_case "unknown flag prints subcommand usage" `Quick
            test_unknown_flag_prints_usage;
          Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
          Alcotest.test_case "fuzz validates --energy" `Quick
            test_fuzz_rejects_bad_energy;
          Alcotest.test_case "bad spec values are usage errors" `Quick
            test_bad_spec_values;
          Alcotest.test_case "symex validates --max-paths" `Quick
            test_symex_rejects_bad_max_paths;
          Alcotest.test_case "submit takes every spec flag" `Quick
            test_submit_takes_every_spec_flag;
          Alcotest.test_case "version string format" `Quick
            test_version_string;
        ] );
    ]
