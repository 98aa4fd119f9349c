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

(* One value change (or initial value) of [sig_], written in place. *)
let add_value buf sig_ v =
  if sig_.width = 1 then Printf.bprintf buf "%d%s\n" (v land 1) sig_.id
  else begin
    Buffer.add_char buf 'b';
    for i = sig_.width - 1 downto 0 do
      Buffer.add_char buf (if (v lsr i) land 1 = 1 then '1' else '0')
    done;
    Printf.bprintf buf " %s\n" sig_.id
  end

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

(* Write one stream's changes, shifted onto the global timeline, in the
   stream's own order. *)
let write_stream layout groups change ~shift q =
  Query.iter
    (fun (e : Event.t) ->
      let time = e.Event.cycle + shift in
      match e.Event.kind with
      | Event.Pmp_check -> change time layout.sig_pmp e.Event.value
      | Event.Ctx_switch -> change time layout.sig_domain e.Event.value
      | Event.Fill | Event.Evict | Event.Flush | Event.Hit | Event.Residue
        -> (
        change time layout.sig_domain e.Event.domain;
        match Option.bind e.Event.structure (fun s -> groups.(Structure.to_code s)) with
        | None -> ()
        | Some (occ, ev, slot) ->
          change time ev (1 + Event.kind_to_int e.Event.kind);
          change time slot e.Event.slot;
          (* [value] carries occupancy+1 where the machine could read
             it cheaply; 0 means unknown, leaving the signal alone. *)
          if e.Event.value > 0 then change time occ (e.Event.value - 1)))
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
  let groups = Array.make Structure.count None in
  List.iter
    (fun (s, occ, ev, slot) -> groups.(Structure.to_code s) <- Some (occ, ev, slot))
    layout.per_structure;
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "$comment TEESec microarchitectural waveform $end\n";
  Buffer.add_string buf "$version teesec wave exporter $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf "$scope module teesec $end\n";
  let declare sig_ =
    Printf.bprintf buf "$var wire %d %s %s $end\n" sig_.width sig_.id sig_.name
  in
  declare layout.sig_domain;
  declare layout.sig_pmp;
  declare layout.sig_case;
  List.iter
    (fun (s, occ, ev, slot) ->
      Printf.bprintf buf "$scope module %s $end\n"
        (String.map
           (fun c -> if c = '-' || c = ' ' then '_' else c)
           (Structure.to_string s));
      declare occ;
      declare ev;
      declare slot;
      Buffer.add_string buf "$upscope $end\n")
    layout.per_structure;
  Buffer.add_string buf "$upscope $end\n";
  Buffer.add_string buf "$enddefinitions $end\n";
  (* Initial values. *)
  Buffer.add_string buf "$dumpvars\n";
  List.iter (fun sig_ -> add_value buf sig_ 0) (all_signals layout);
  Buffer.add_string buf "$end\n";
  let current_time = ref (-1) in
  let change time sig_ v =
    if time <> !current_time then begin
      Printf.bprintf buf "#%d\n" time;
      current_time := time
    end;
    add_value buf sig_ v
  in
  (* Lay the streams end to end on the global timeline.  A stream's
     cycles never decrease ([render] checks) and each stream starts
     after the previous one ends, so stream order is time order; within
     a timestamp it is the machine's own operation order. *)
  let offset = ref 0 in
  List.iteri
    (fun i q ->
      let first, last =
        match Query.cycle_span q with Some (a, b) -> (a, b) | None -> (0, 0)
      in
      let shift = !offset - first in
      change !offset layout.sig_case i;
      write_stream layout groups change ~shift q;
      offset := last + shift + gap_cycles)
    queries;
  Printf.bprintf buf "#%d\n" !offset;
  Buffer.contents buf

(* The cycles of the first backward step of [q], if any. *)
let backward_step q =
  let prev = ref min_int and step = ref None in
  Query.iter
    (fun (e : Event.t) ->
      if !step = None && e.Event.cycle < !prev then step := Some (!prev, e.Event.cycle);
      prev := e.Event.cycle)
    q;
  !step

let render streams =
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | (name, payload) :: rest -> (
      match Query.of_stream payload with
      | Error e -> Error (Printf.sprintf "stream %S: %s" name e)
      | Ok q -> (
        match backward_step q with
        | Some (a, b) ->
          Error (Printf.sprintf "stream %S: cycle %d goes backwards after %d" name b a)
        | None -> decode (q :: acc) rest))
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
