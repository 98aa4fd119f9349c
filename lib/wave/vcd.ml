(* VCD (Value Change Dump) export of wave streams, and the strict
   reader behind [vcd-check]. *)

module Structure = Simlog.Structure

let gap_cycles = 10  (* idle separator between consecutive cases *)

(* {2 Signal model} *)

type signal = {
  id : string;  (* VCD identifier code *)
  name : string;
  width : int;
}

let id_of_index i =
  (* Identifier codes use the printable range '!'..'~' (94 symbols),
     little-endian multi-character beyond that. *)
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = acc ^ String.make 1 c in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let binary_of_int ~width v =
  let b = Bytes.make width '0' in
  for i = 0 to width - 1 do
    if (v lsr i) land 1 = 1 then Bytes.set b (width - 1 - i) '1'
  done;
  Bytes.to_string b

let change buf ~time_sorted:(sig_ : signal) v =
  if sig_.width = 1 then
    Buffer.add_string buf (Printf.sprintf "%d%s\n" (v land 1) sig_.id)
  else
    Buffer.add_string buf
      (Printf.sprintf "b%s %s\n" (binary_of_int ~width:sig_.width v) sig_.id)

let structure_signal_name s suffix =
  let base =
    String.map
      (fun c -> if c = '-' || c = ' ' then '_' else Char.lowercase_ascii c)
      (Structure.to_string s)
  in
  base ^ "_" ^ suffix

(* {2 Rendering} *)

type layout = {
  sig_domain : signal;
  sig_pmp : signal;
  sig_case : signal;
  per_structure : (Structure.t * signal * signal * signal) list;
      (* occupancy, last-event-kind, last-touched-slot *)
}

let make_layout structures =
  let counter = ref 0 in
  let fresh name width =
    let id = id_of_index !counter in
    incr counter;
    { id; name; width }
  in
  let sig_domain = fresh "security_domain" 8 in
  let sig_pmp = fresh "pmp_grant" 1 in
  let sig_case = fresh "case_index" 32 in
  let per_structure =
    List.map
      (fun s ->
        ( s,
          fresh (structure_signal_name s "occ") 16,
          fresh (structure_signal_name s "ev") 4,
          fresh (structure_signal_name s "slot") 16 ))
      structures
  in
  { sig_domain; sig_pmp; sig_case; per_structure }

let all_signals l =
  (l.sig_domain :: l.sig_pmp :: l.sig_case :: [])
  @ List.concat_map (fun (_, a, b, c) -> [ a; b; c ]) l.per_structure

(* Collect (time, signal, value) changes for one stream shifted onto
   the global timeline. *)
let changes_of_stream layout ~shift q acc =
  let add time sig_ v = acc := (time, sig_, v) :: !acc in
  Query.iter
    (fun (e : Event.t) ->
      let time = e.Event.cycle + shift in
      match e.Event.kind with
      | Event.Pmp_check -> add time layout.sig_pmp e.Event.value
      | Event.Ctx_switch -> add time layout.sig_domain e.Event.value
      | Event.Fill | Event.Evict | Event.Flush | Event.Hit | Event.Residue
        -> (
        add time layout.sig_domain e.Event.domain;
        match e.Event.structure with
        | None -> ()
        | Some s -> (
          match
            List.find_opt
              (fun (s', _, _, _) -> Structure.equal s s')
              layout.per_structure
          with
          | None -> ()
          | Some (_, occ, ev, slot) ->
            add time ev (1 + Event.kind_to_int e.Event.kind);
            add time slot e.Event.slot;
            (* [value] carries occupancy+1 where the machine could read
               it cheaply; 0 means unknown, leaving the signal alone. *)
            if e.Event.value > 0 then add time occ (e.Event.value - 1))))
    q

let render_queries queries =
  let structures =
    List.sort_uniq Structure.compare
      (List.concat_map Query.structures queries)
  in
  (* Keep Structure.all order for stable scopes. *)
  let structures =
    List.filter (fun s -> List.exists (Structure.equal s) structures) Structure.all
  in
  let layout = make_layout structures in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "$comment TEESec microarchitectural waveform $end\n";
  Buffer.add_string buf "$version teesec wave exporter $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf "$scope module teesec $end\n";
  let declare sig_ =
    Buffer.add_string buf
      (Printf.sprintf "$var wire %d %s %s $end\n" sig_.width sig_.id sig_.name)
  in
  declare layout.sig_domain;
  declare layout.sig_pmp;
  declare layout.sig_case;
  List.iter
    (fun (s, occ, ev, slot) ->
      Buffer.add_string buf
        (Printf.sprintf "$scope module %s $end\n"
           (String.map
              (fun c -> if c = '-' || c = ' ' then '_' else c)
              (Structure.to_string s)));
      declare occ;
      declare ev;
      declare slot;
      Buffer.add_string buf "$upscope $end\n")
    layout.per_structure;
  Buffer.add_string buf "$upscope $end\n";
  Buffer.add_string buf "$enddefinitions $end\n";
  (* Initial values. *)
  Buffer.add_string buf "$dumpvars\n";
  List.iter
    (fun sig_ ->
      if sig_.width = 1 then
        Buffer.add_string buf (Printf.sprintf "0%s\n" sig_.id)
      else
        Buffer.add_string buf
          (Printf.sprintf "b%s %s\n" (binary_of_int ~width:sig_.width 0) sig_.id))
    (all_signals layout);
  Buffer.add_string buf "$end\n";
  (* Lay the streams end to end on the global timeline. *)
  let acc = ref [] in
  let offset = ref 0 in
  List.iteri
    (fun i q ->
      let first, last =
        match Query.cycle_span q with Some (a, b) -> (a, b) | None -> (0, 0)
      in
      let shift = !offset - first in
      acc := (!offset, layout.sig_case, i) :: !acc;
      changes_of_stream layout ~shift q acc;
      offset := last + shift + gap_cycles)
    queries;
  (* Stable sort by time: within a timestamp the emission order is the
     machine's own operation order. *)
  let changes = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !acc) in
  let current_time = ref (-1) in
  List.iter
    (fun (time, sig_, v) ->
      if time <> !current_time then begin
        Buffer.add_string buf (Printf.sprintf "#%d\n" time);
        current_time := time
      end;
      change buf ~time_sorted:sig_ v)
    changes;
  Buffer.add_string buf (Printf.sprintf "#%d\n" !offset);
  Buffer.contents buf

let render streams =
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | (name, payload) :: rest -> (
      match Query.of_stream payload with
      | Ok q -> decode (q :: acc) rest
      | Error e -> Error (Printf.sprintf "stream %S: %s" name e))
  in
  Result.map render_queries (decode [] streams)

(* {2 Validation}

   The strict reader behind the [vcd-check] subcommand and the CI wave
   smoke step: verifies the header shape, counts declarations, checks
   every value change references a declared identifier with a value no
   wider than its declared width, and that timestamps never go
   backwards. *)

type stats = {
  signals : int;
  changes : int;
  last_time : int;
  has_timescale : bool;
}

let validate src =
  let lines = String.split_on_char '\n' src in
  let declared = Hashtbl.create 32 in
  let signals = ref 0 in
  let changes = ref 0 in
  let last_time = ref (-1) in
  let has_timescale = ref false in
  let in_header = ref true in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go lineno = function
    | [] ->
      if !in_header then err "missing $enddefinitions"
      else
        Ok
          {
            signals = !signals;
            changes = !changes;
            last_time = max 0 !last_time;
            has_timescale = !has_timescale;
          }
    | line :: rest -> (
      let line = String.trim line in
      if line = "" then go (lineno + 1) rest
      else if !in_header then begin
        if String.length line >= 10 && String.sub line 0 10 = "$timescale" then
          has_timescale := true;
        (match String.split_on_char ' ' line with
        | "$var" :: _kind :: width :: id :: _ -> (
          match int_of_string_opt width with
          | Some w when w >= 1 ->
            Hashtbl.replace declared id w;
            incr signals
          | _ -> ())
        | _ -> ());
        if line = "$enddefinitions $end" then in_header := false;
        go (lineno + 1) rest
      end
      else if line.[0] = '#' then (
        match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
        | None -> err "line %d: bad timestamp %S" lineno line
        | Some t ->
          if t < !last_time then
            err "line %d: timestamp %d goes backwards (after %d)" lineno t
              !last_time
          else begin
            last_time := t;
            go (lineno + 1) rest
          end)
      else if line = "$dumpvars" || line = "$end" then go (lineno + 1) rest
      else if line.[0] = 'b' then (
        match String.split_on_char ' ' line with
        | [ value; id ] -> (
          let digits = String.sub value 1 (String.length value - 1) in
          match Hashtbl.find_opt declared id with
          | None -> err "line %d: change for undeclared signal %S" lineno id
          | Some width ->
            if digits = "" || not (String.for_all (fun c -> c = '0' || c = '1') digits)
            then err "line %d: bad vector value %S" lineno value
            else if String.length digits > width then
              err "line %d: vector value %S wider than its %d-bit signal %S" lineno
                value width id
            else begin
              incr changes;
              go (lineno + 1) rest
            end)
        | _ -> err "line %d: malformed vector change %S" lineno line)
      else if line.[0] = '0' || line.[0] = '1' then begin
        let id = String.sub line 1 (String.length line - 1) in
        if not (Hashtbl.mem declared id) then
          err "line %d: change for undeclared signal %S" lineno id
        else begin
          incr changes;
          go (lineno + 1) rest
        end
      end
      else err "line %d: unrecognised line %S" lineno line)
  in
  if String.length src = 0 then err "empty VCD"
  else go 1 lines
