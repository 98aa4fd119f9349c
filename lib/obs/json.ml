type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> error st (Printf.sprintf "expected %c, got %c" c got)
  | None -> error st (Printf.sprintf "expected %c, got end of input" c)

let expect_word st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = st.src.[st.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are not
   recombined (each half renders independently), which is fine for the
   ASCII-dominated traces and metrics this parser validates. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> add_utf8 buf (parse_hex4 st)
        | c -> error st (Printf.sprintf "bad escape \\%c" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error st (Printf.sprintf "bad number %S" text)

(* Nesting is bounded so adversarial input ("[[[[…") fails with a
   {!Parse_error} instead of escaping as [Stack_overflow] — the parser
   sees wire bytes (worker replies, HTTP bodies), not just our own
   output.  512 levels is far beyond anything the tooling emits. *)
let max_depth = 512

let rec parse_value st ~depth =
  if depth > max_depth then
    error st (Printf.sprintf "nesting deeper than %d levels" max_depth);
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
        | _ -> error st "expected , or } in object"
      in
      members []
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          Arr (List.rev (v :: acc))
        | _ -> error st "expected , or ] in array"
      in
      elements []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let parse_exn src =
  let st = { src; pos = 0 } in
  let v = parse_value st ~depth:0 in
  skip_ws st;
  if st.pos <> String.length src then error st "trailing bytes after value";
  v

let parse src =
  try Ok (parse_exn src) with Parse_error msg -> Error msg

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_number = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let number_field key v = Option.bind (member key v) to_number
let string_field key v = Option.bind (member key v) to_string

(* {2 Printer} *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

(* Integral values that fit an OCaml int print as digits (every digit of
   an epoch-nanosecond stamp survives); anything else as the shorter of
   %.15g and %.17g that reads back to the same float. *)
let number_text f =
  if Float.is_integer f && Float.abs f < 0x1p62 then
    string_of_int (int_of_float f)
  else if Float.is_finite f then
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f
  else "null"

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let add_entries buf ~open_ ~sep ~close entries add =
  Buffer.add_string buf open_;
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf sep;
      add e)
    entries;
  Buffer.add_string buf close

let add_member buf add (k, v) =
  add_string buf k;
  Buffer.add_string buf ": ";
  add buf v

let rec add_line buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_text f)
  | Str s -> add_string buf s
  | Arr l -> add_entries buf ~open_:"[" ~sep:", " ~close:"]" l (add_line buf)
  | Obj l ->
    add_entries buf ~open_:"{" ~sep:", " ~close:"}" l (add_member buf add_line)

(* The top-level container and its direct container children put one
   entry per line, indented two spaces per level; deeper values and
   empty containers take the one-line form. *)
let rec add_document ~depth buf v =
  let lines open_ close l add =
    let indent = "\n" ^ String.make (2 * (depth + 1)) ' ' in
    add_entries buf ~open_:(open_ ^ indent) ~sep:("," ^ indent)
      ~close:("\n" ^ String.make (2 * depth) ' ' ^ close)
      l add
  in
  let child = add_document ~depth:(depth + 1) in
  match v with
  | Arr (_ :: _ as l) when depth < 2 -> lines "[" "]" l (child buf)
  | Obj (_ :: _ as l) when depth < 2 -> lines "{" "}" l (add_member buf child)
  | v -> add_line buf v

let to_line v =
  let buf = Buffer.create 256 in
  add_line buf v;
  Buffer.contents buf

let to_document v =
  let buf = Buffer.create 4096 in
  add_document ~depth:0 buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* {2 Builders} *)

let int n = Num (float_of_int n)
let list f l = Arr (List.map f l)
let option f = function Some x -> f x | None -> Null
