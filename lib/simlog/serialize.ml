open! Import

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\t' | '\n' | '%' | ',' | '~' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> Buffer.add_char buf s.[i]);
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let entry_to_string (e : Log.entry) =
  Printf.sprintf "%d,%s,0x%Lx,%s" e.Log.slot
    (match e.Log.addr with Some a -> Printf.sprintf "0x%Lx" a | None -> "~")
    e.Log.data (escape e.Log.note)

let entry_of_string s =
  match String.split_on_char ',' s with
  | [ slot; addr; data; note ] -> (
    match
      ( int_of_string_opt slot,
        (if addr = "~" then Some None
         else Option.map Option.some (Int64.of_string_opt addr)),
        Int64.of_string_opt data )
    with
    | Some slot, Some addr, Some data ->
      Some { Log.slot; addr; data; note = unescape note }
    | _ -> None)
  | _ -> None

let record_to_string (r : Log.record) =
  let head kind = Printf.sprintf "%s\t%d\t%s" kind r.Log.cycle (Exec_context.to_string r.Log.ctx) in
  match r.Log.event with
  | Log.Write { structure; entries; origin } ->
    String.concat "\t"
      (head "W"
      :: Structure.to_string structure
      :: Log.origin_to_string origin
      :: List.map entry_to_string entries)
  | Log.Snapshot { structure; entries } ->
    String.concat "\t"
      ((head "S" :: [ Structure.to_string structure ]) @ List.map entry_to_string entries)
  | Log.Mode_switch { from_ctx; to_ctx } ->
    String.concat "\t"
      [ head "M"; Exec_context.to_string from_ctx; Exec_context.to_string to_ctx ]
  | Log.Commit { pc; instr } ->
    String.concat "\t" [ head "C"; Printf.sprintf "0x%Lx" pc; escape instr ]
  | Log.Exception_raised { cause; pc } ->
    String.concat "\t" [ head "E"; Printf.sprintf "0x%Lx" pc; escape cause ]
  | Log.Fault_injected { structure; detail } ->
    String.concat "\t"
      [
        head "F";
        (match structure with Some s -> Structure.to_string s | None -> "~");
        escape detail;
      ]

(* Streams the log one decoded record at a time. *)
let write_channel oc log =
  Log.iter log (fun c ->
      output_string oc (record_to_string (Log.Cursor.record c));
      output_char oc '\n')

let to_string log =
  let buf = Buffer.create 4096 in
  Log.iter log (fun c ->
      Buffer.add_string buf (record_to_string (Log.Cursor.record c));
      Buffer.add_char buf '\n');
  Buffer.contents buf

let save ~path log =
  let oc = open_out path in
  (try write_channel oc log with e -> close_out oc; raise e);
  close_out oc

let parse_entries fields =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
      match entry_of_string f with
      | Some e -> go (e :: acc) rest
      | None -> None)
  in
  go [] fields

let parse_record line =
  match String.split_on_char '\t' line with
  | kind :: cycle :: ctx :: rest -> (
    match (int_of_string_opt cycle, Exec_context.of_string ctx) with
    | Some cycle, Some ctx -> (
      let record event = Some { Log.cycle; ctx; event } in
      match (kind, rest) with
      | "W", structure :: origin :: entries -> (
        match (Structure.of_string structure, Log.origin_of_string origin, parse_entries entries) with
        | Some structure, Some origin, Some entries ->
          record (Log.Write { structure; entries; origin })
        | _ -> None)
      | "S", structure :: entries -> (
        match (Structure.of_string structure, parse_entries entries) with
        | Some structure, Some entries -> record (Log.Snapshot { structure; entries })
        | _ -> None)
      | "M", [ from_ctx; to_ctx ] -> (
        match (Exec_context.of_string from_ctx, Exec_context.of_string to_ctx) with
        | Some from_ctx, Some to_ctx -> record (Log.Mode_switch { from_ctx; to_ctx })
        | _ -> None)
      | "C", [ pc; instr ] -> (
        match Int64.of_string_opt pc with
        | Some pc -> record (Log.Commit { pc; instr = unescape instr })
        | None -> None)
      | "E", [ pc; cause ] -> (
        match Int64.of_string_opt pc with
        | Some pc -> record (Log.Exception_raised { cause = unescape cause; pc })
        | None -> None)
      | "F", [ structure; detail ] -> (
        match
          if structure = "~" then Some None
          else Option.map Option.some (Structure.of_string structure)
        with
        | Some structure ->
          record (Log.Fault_injected { structure; detail = unescape detail })
        | None -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let parse_string s =
  let log = Log.create () in
  let lines = String.split_on_char '\n' s in
  let rec go line_no = function
    | [] -> Ok log
    | "" :: rest -> go (line_no + 1) rest
    | line :: rest -> (
      match parse_record line with
      | Some r ->
        Log.record log ~cycle:r.Log.cycle ~ctx:r.Log.ctx r.Log.event;
        go (line_no + 1) rest
      | None -> Error (Printf.sprintf "malformed record at line %d: %s" line_no line))
  in
  go 1 lines

let load ~path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string s
