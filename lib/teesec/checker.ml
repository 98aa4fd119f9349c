open! Import

type detection = Fetched | Residue

let detection_to_string = function Fetched -> "fetched" | Residue -> "residue"

type finding = {
  case : Case.id option;
  secret : Secret.seeded option;
  structure : Structure.t;
  cycle : int;
  ctx : Exec_context.t;
  origin : Log.origin option;
  detection : detection;
  note : string;
  last_pc : Word.t option;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s %s in %s at cycle %d (ctx %a%s)%s"
    (match f.case with Some c -> Case.to_string c | None -> "residue")
    (detection_to_string f.detection)
    (Structure.to_string f.structure) f.cycle Exec_context.pp f.ctx
    (match f.origin with
    | Some o -> ", via " ^ Log.origin_to_string o
    | None -> "")
    (match f.secret with
    | Some s -> Format.asprintf ": %a" Secret.pp_seeded s
    | None -> "")

(* Cross-boundary explicit-access classification (D4-D7): decided by the
   owner of the secret and the context that observed it. *)
let cross_boundary_case (owner : Secret.owner) (ctx : Exec_context.t) =
  match (owner, ctx) with
  | Secret.Enclave_owner _, Exec_context.Host _ -> Some Case.D4
  | Secret.Sm_owner, Exec_context.Host _ -> Some Case.D5
  | Secret.Enclave_owner i, Exec_context.Enclave j when i <> j -> Some Case.D6
  | Secret.Host_owner, Exec_context.Enclave _ -> Some Case.D7
  | Secret.Sm_owner, Exec_context.Enclave _ -> Some Case.D5
  | ( (Secret.Enclave_owner _ | Secret.Host_owner | Secret.Sm_owner),
      (Exec_context.Host _ | Exec_context.Enclave _ | Exec_context.Monitor) ) ->
    None

let contains_substring = Strutil.contains_substring

(* Classify one data observation.  [forwarded] and [transient] say
   whether the observed entry's note mentions a store-buffer forward or
   a transient access; only register-file writes consult them. *)
let classify_flags ~(structure : Structure.t) ~origin ~(owner : Secret.owner)
    ~(ctx : Exec_context.t) ~forwarded ~transient ~detection =
  match structure with
  | Structure.Lfb -> (
    match origin with
    | Some Log.Prefetch -> Some Case.D1
    | Some Log.Ptw_walk -> Some Case.D2
    | Some Log.Memset_destroy -> Some Case.D3
    | Some Log.Explicit_load when detection = Fetched -> cross_boundary_case owner ctx
    | Some
        ( Log.Explicit_load | Log.Explicit_store | Log.Store_drain | Log.Csr_read
        | Log.Context_save | Log.Refill | Log.Branch_exec | Log.Writeback
        | Log.Fault_inject )
    | None ->
      None)
  | Structure.Reg_file ->
    if detection = Residue then None
    else if forwarded then Some Case.D8
    else if transient then cross_boundary_case owner ctx
    else None
  | Structure.L1i_data | Structure.L1d_data | Structure.L2_data
  | Structure.Store_buffer | Structure.Store_queue | Structure.Load_queue
  | Structure.Dtlb | Structure.Ptw_cache | Structure.Ubtb | Structure.Ftb
  | Structure.Hpm_counters | Structure.Wb_buffer | Structure.Prefetcher ->
    None

let forwarded_needle = "forwarded-from-store-buffer"
let transient_needle = "transient"

let classify ~structure ~origin ~owner ~ctx ~note ~detection =
  classify_flags ~structure ~origin ~owner ~ctx ~detection
    ~forwarded:(contains_substring ~needle:forwarded_needle note)
    ~transient:(contains_substring ~needle:transient_needle note)

(* Provenance of a residue hit: the most recent write of the same value
   into the same structure.  Naive reference — rescans the whole record
   list; the indexed pass below replaces it on the hot path. *)
let residue_provenance records ~structure ~value ~before_cycle =
  let best = ref None in
  List.iter
    (fun (r : Log.record) ->
      if r.Log.cycle <= before_cycle then
        match r.Log.event with
        | Log.Write { structure = s; entries; origin }
          when Structure.equal s structure
               && List.exists (fun (e : Log.entry) -> Int64.equal e.Log.data value) entries
          -> (
          match !best with
          | Some (c, _) when c >= r.Log.cycle -> ()
          | _ -> best := Some (r.Log.cycle, origin))
        | _ -> ())
    records;
  Option.map snd !best

(* {2 P1: data leakage — naive reference}

   O(secrets × records × entries), kept verbatim as the differential
   oracle for the indexed implementation below. *)

let check_data_naive log tracker records =
  let findings = ref [] in
  List.iter
    (fun (s : Secret.seeded) ->
      List.iter
        (fun (r : Log.record) ->
          if not (Secret.authorized s.Secret.owner r.Log.ctx) then begin
            let emit ~structure ~origin ~detection ~note =
              let case =
                classify ~structure ~origin ~owner:s.Secret.owner ~ctx:r.Log.ctx
                  ~note ~detection
              in
              findings :=
                {
                  case;
                  secret = Some s;
                  structure;
                  cycle = r.Log.cycle;
                  ctx = r.Log.ctx;
                  origin;
                  detection;
                  note;
                  last_pc = Log.last_commit_before log ~cycle:r.Log.cycle;
                }
                :: !findings
            in
            match r.Log.event with
            | Log.Write { structure; entries; origin } ->
              List.iter
                (fun (e : Log.entry) ->
                  if Int64.equal e.Log.data s.Secret.value then
                    if s.Secret.derived then begin
                      (* Derived sub-words only count as transient RF
                         forwards, to avoid matching benign short values. *)
                      if
                        Structure.equal structure Structure.Reg_file
                        && contains_substring ~needle:"transient" e.Log.note
                      then
                        emit ~structure ~origin:(Some origin) ~detection:Fetched
                          ~note:e.Log.note
                    end
                    else
                      emit ~structure ~origin:(Some origin) ~detection:Fetched
                        ~note:e.Log.note)
                entries
            | Log.Snapshot { structure; entries } ->
              if
                (not s.Secret.derived)
                && List.exists
                     (fun (e : Log.entry) -> Int64.equal e.Log.data s.Secret.value)
                     entries
              then
                let origin =
                  residue_provenance records ~structure ~value:s.Secret.value
                    ~before_cycle:r.Log.cycle
                in
                emit ~structure ~origin ~detection:Residue ~note:"snapshot residue"
            | Log.Mode_switch _ | Log.Commit _ | Log.Exception_raised _
            | Log.Fault_injected _ ->
              ()
          end)
        records)
    (Secret.all tracker);
  !findings

(* {2 P1: data leakage — indexed}

   The reference emits secret by secret in registration order, then
   record by record, then entry by entry, and prepends: its list runs
   over the secrets newest first and over each secret's observations
   newest first.  [dedupe] keeps the first finding of each key in that
   list, so the indexed pass visits observations in the same order and
   decides survival before it builds anything.

   - {!scan} reads the log once.  Entry data is compared in place
     against the seeded values, and each matching entry — a {e hit} —
     is recorded as integers in a per-domain scratch buffer, chained
     newest first to the earlier hits of its value (keyed by the
     value's {!Log.Values} slot).  Every commit is kept as (cycle, pc),
     and the records the metadata checks read are decoded.
   - {!emit_data} walks the secrets newest first and, for each, its
     value's chain, applying the reference's rules.  The dedupe key of
     a candidate is an integer computed from its codes; only the first
     candidate of a key becomes a finding, and only then are its note
     and last committed pc read. *)

(* A hit is [hit_fields] consecutive ints of [scratch.hits]. *)
let f_record = 0
let f_structure = 1
let f_origin = 2 (* Origin code; -1 for a [Snapshot] hit. *)
let f_cycle = 3
let f_tag = 4
let f_id = 5
let f_note = 6 (* Note reference ([Write] hits). *)
let f_flags = 7 (* Register-file writes: the note predicates below. *)
let f_next = 8 (* The same value's previous hit, or -1. *)
let hit_fields = 9
let transient_flag = 1
let forwarded_flag = 2

module Keys = Hashtbl.Make (Int)

type scratch = {
  mutable hits : int array;
  mutable n_hits : int;
  mutable heads : int array;  (* Per value slot: its newest hit, or -1. *)
  seen : unit Keys.t;  (* The dedupe keys met so far. *)
  mutable commit_cycles : int array;
  mutable commit_pcs : Bytes.t;
  mutable n_commits : int;
}

(* Arrays over 256 words are allocated on the major heap, so the
   buffers are kept per domain and reused by every check.  They start
   small and double on demand, so a domain holds only what its largest
   log needed; one key for the module, so nothing accumulates per
   campaign or engine. *)
let initial = 256

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        hits = Array.make (initial * hit_fields) 0;
        n_hits = 0;
        heads = Array.make initial (-1);
        seen = Keys.create 64;
        commit_cycles = Array.make initial 0;
        commit_pcs = Bytes.create (8 * initial);
        n_commits = 0;
      })

let grow a need =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let metadata_record c =
  match (Log.Cursor.kind c, Log.Cursor.structure c) with
  | Log.Snapshot_kind, (Structure.Ubtb | Structure.Ftb) -> (
    match Log.Cursor.ctx c with Exec_context.Host _ -> true | _ -> false)
  | Log.Snapshot_kind, Structure.Hpm_counters -> true
  | Log.Write_kind, Structure.Reg_file -> Log.Cursor.origin c = Log.Csr_read
  | _ -> false

let reg_file = Structure.to_code Structure.Reg_file

(* Appends a hit of value slot [k]: the record's fields, read once per
   record, and entry [i]'s note. *)
let push_hit sc c ~record ~structure ~origin ~cycle ~tag ~id i k =
  let h = sc.n_hits in
  let b = h * hit_fields in
  if b + hit_fields > Array.length sc.hits then
    sc.hits <- grow sc.hits (b + hit_fields);
  let hits = sc.hits and write = origin >= 0 in
  hits.(b + f_record) <- record;
  hits.(b + f_structure) <- structure;
  hits.(b + f_origin) <- origin;
  hits.(b + f_cycle) <- cycle;
  hits.(b + f_tag) <- tag;
  hits.(b + f_id) <- id;
  hits.(b + f_note) <- (if write then Log.Cursor.note_ref c i else 0);
  hits.(b + f_flags) <-
    (if write && structure = reg_file then
       (if Log.Cursor.note_contains c i ~needle:transient_needle then transient_flag else 0)
       lor
       if Log.Cursor.note_contains c i ~needle:forwarded_needle then forwarded_flag else 0
     else 0);
  hits.(b + f_next) <- sc.heads.(k);
  sc.heads.(k) <- h;
  sc.n_hits <- h + 1

let push_commit sc c =
  let n = sc.n_commits in
  if n >= Array.length sc.commit_cycles then begin
    sc.commit_cycles <- grow sc.commit_cycles (n + 1);
    let pcs = Bytes.create (8 * Array.length sc.commit_cycles) in
    Bytes.blit sc.commit_pcs 0 pcs 0 (8 * n);
    sc.commit_pcs <- pcs
  end;
  sc.commit_cycles.(n) <- Log.Cursor.cycle c;
  Bytes.set_int64_ne sc.commit_pcs (8 * n) (Log.Cursor.pc c);
  sc.n_commits <- n + 1

(* Fills [sc] from [log] and returns the metadata records, in record
   order: host BTB snapshots, HPM snapshots and CSR-read register
   writes — {!check_btb_residue} and {!check_hpc} ignore every other
   record. *)
let scan sc log values =
  let slots = Log.Values.capacity values in
  if slots > Array.length sc.heads then sc.heads <- grow sc.heads slots;
  Array.fill sc.heads 0 slots (-1);
  sc.n_hits <- 0;
  sc.n_commits <- 0;
  let metadata = ref [] in
  Log.iter log (fun c ->
      match Log.Cursor.kind c with
      | Log.Commit_kind -> push_commit sc c
      | (Log.Write_kind | Log.Snapshot_kind) as kind ->
        if metadata_record c then metadata := Log.Cursor.record c :: !metadata;
        let i = ref (Log.Cursor.next_match c values 0) in
        if !i >= 0 then begin
          let record = Log.Cursor.index c and structure = Log.Cursor.structure_code c in
          let origin = if kind = Log.Write_kind then Log.Cursor.origin_code c else -1 in
          let cycle = Log.Cursor.cycle c in
          let tag = Log.Cursor.ctx_tag c and id = Log.Cursor.ctx_id c in
          while !i >= 0 do
            push_hit sc c ~record ~structure ~origin ~cycle ~tag ~id !i
              (Log.Cursor.value_slot c values !i);
            i := Log.Cursor.next_match c values (!i + 1)
          done
        end
      | Log.Mode_switch_kind | Log.Exception_kind | Log.Fault_kind -> ());
  List.rev !metadata

(* {!Log.last_commit_before} over the kept commits: the record-order-last
   commit of the largest cycle at or before [cycle], with the same -1
   floor. *)
let last_commit_before sc ~cycle =
  let cycles = sc.commit_cycles in
  let best = ref (-1) and best_cycle = ref (-1) in
  for j = 0 to sc.n_commits - 1 do
    let at = cycles.(j) in
    if at <= cycle && at >= !best_cycle then begin
      best := j;
      best_cycle := at
    end
  done;
  if !best < 0 then None else Some (Bytes.get_int64_ne sc.commit_pcs (8 * !best))

(* [Some o] for every origin, by code: classification takes options. *)
let some_origin = Array.of_list (List.map Option.some Log.all_origins)

(* {!residue_provenance} over value slot [k]'s chain: among the writes
   into [structure] at or before [before_cycle], the first in record
   order of the largest cycle.  The chain runs newest first, so a tie
   replaces the best. *)
let residue_origin sc k ~structure ~before_cycle =
  let hits = sc.hits in
  let best = ref (-1) and best_cycle = ref 0 in
  let h = ref sc.heads.(k) in
  while !h >= 0 do
    let b = !h * hit_fields in
    let origin = hits.(b + f_origin) and cycle = hits.(b + f_cycle) in
    if
      origin >= 0
      && hits.(b + f_structure) = structure
      && cycle <= before_cycle
      && (!best < 0 || cycle >= !best_cycle)
    then begin
      best := origin;
      best_cycle := cycle
    end;
    h := hits.(b + f_next)
  done;
  if !best < 0 then None else some_origin.(!best)

let case_codes = 1 + List.length Case.all

(* Whether [dedupe]'s key — (case, structure, detection, value), the
   value by its slot [k] — is met for the first time; records it. *)
let first_sighting sc k case structure detection =
  let case = match case with None -> 0 | Some c -> 1 + Case.index c in
  let detection = match detection with Fetched -> 0 | Residue -> 1 in
  let key = (((((k * case_codes) + case) * Structure.count) + structure) * 2) + detection in
  if Keys.mem sc.seen key then false
  else begin
    Keys.replace sc.seen key ();
    true
  end

(* The deduplicated data findings in the reference's order, split into
   the classified ones and the residue warnings. *)
let emit_data sc log values newest_first =
  Keys.reset sc.seen;
  let hits = sc.hits in
  let classified = ref [] and residue = ref [] in
  let keep f =
    match f.case with
    | Some _ -> classified := f :: !classified
    | None -> residue := f :: !residue
  in
  List.iter
    (fun (s : Secret.seeded) ->
      let k = Log.Values.slot values s.Secret.value and owner = s.Secret.owner in
      let last_snapshot = ref (-1) in
      let h = ref sc.heads.(k) in
      while !h >= 0 do
        let b = !h * hit_fields in
        h := hits.(b + f_next);
        let ctx = Log.context_of_code ~tag:hits.(b + f_tag) ~id:hits.(b + f_id) in
        if not (Secret.authorized owner ctx) then begin
          let code = hits.(b + f_structure) and cycle = hits.(b + f_cycle) in
          let structure = Structure.of_code code in
          if hits.(b + f_origin) >= 0 then begin
            let flags = hits.(b + f_flags) in
            let transient = flags land transient_flag <> 0 in
            (* Derived sub-words only count as transient RF forwards. *)
            if (not s.Secret.derived) || (code = reg_file && transient) then begin
              let origin = some_origin.(hits.(b + f_origin)) in
              let case =
                classify_flags ~structure ~origin ~owner ~ctx ~detection:Fetched
                  ~forwarded:(flags land forwarded_flag <> 0) ~transient
              in
              if first_sighting sc k case code Fetched then
                keep
                  {
                    case;
                    secret = Some s;
                    structure;
                    cycle;
                    ctx;
                    origin;
                    detection = Fetched;
                    note = Log.note_at log hits.(b + f_note);
                    last_pc = last_commit_before sc ~cycle;
                  }
            end
          end
          else if (not s.Secret.derived) && hits.(b + f_record) <> !last_snapshot
          then begin
            (* The reference emits once per secret and snapshot.  Dedupe
               would drop the repeats anyway; skipping them saves their
               provenance walks. *)
            last_snapshot := hits.(b + f_record);
            let origin = residue_origin sc k ~structure:code ~before_cycle:cycle in
            let case =
              classify_flags ~structure ~origin ~owner ~ctx ~detection:Residue
                ~forwarded:false ~transient:false
            in
            if first_sighting sc k case code Residue then
              keep
                {
                  case;
                  secret = Some s;
                  structure;
                  cycle;
                  ctx;
                  origin;
                  detection = Residue;
                  note = "snapshot residue";
                  last_pc = last_commit_before sc ~cycle;
                }
          end
        end
      done)
    newest_first;
  (List.rev !classified, List.rev !residue)

(* {2 P2: metadata leakage} *)

(* M2: enclave-owned branch-predictor entries visible while the host
   executes. *)
let check_btb_residue records =
  let findings = ref [] in
  List.iter
    (fun (r : Log.record) ->
      match (r.Log.ctx, r.Log.event) with
      | Exec_context.Host _, Log.Snapshot { structure = (Structure.Ubtb | Structure.Ftb) as structure; entries }
        ->
        List.iter
          (fun (e : Log.entry) ->
            if
              contains_substring ~needle:"owner=enclave" e.Log.note
              && not (contains_substring ~needle:"id-tagged" e.Log.note)
            then
              findings :=
                {
                  case = Some Case.M2;
                  secret = None;
                  structure;
                  cycle = r.Log.cycle;
                  ctx = r.Log.ctx;
                  origin = Some Log.Branch_exec;
                  detection = Residue;
                  note = e.Log.note;
                  last_pc = None;
                }
                :: !findings)
          entries
      | _ -> ())
    records;
  !findings

(* M1: per-counter deltas accumulated during enclave execution that stay
   visible to the host and are actually read by it. *)
let hpm_snapshot_entries (r : Log.record) =
  match r.Log.event with
  | Log.Snapshot { structure = Structure.Hpm_counters; entries } -> Some entries
  | _ -> None

let event_counter_slots = [ 3; 4; 5; 6; 7; 8; 9; 10 ]

let slot_value entries slot =
  List.fold_left
    (fun acc (e : Log.entry) -> if e.Log.slot = slot then Some e.Log.data else acc)
    None entries

let check_hpc records =
  (* Locate the first enclave execution span. *)
  let rec find_entry = function
    | [] -> None
    | (r : Log.record) :: rest -> (
      match (r.Log.ctx, hpm_snapshot_entries r) with
      | Exec_context.Enclave _, Some entries -> Some (r, entries, rest)
      | _ -> find_entry rest)
  in
  match find_entry records with
  | None -> []
  | Some (entry_rec, entry_entries, rest) -> (
    (* Counter values when leaving the enclave: next HPM snapshot. *)
    let rec find_exit = function
      | [] -> None
      | (r : Log.record) :: rest -> (
        match hpm_snapshot_entries r with
        | Some entries when not (Exec_context.equal r.Log.ctx entry_rec.Log.ctx) ->
          Some (r, entries, rest)
        | _ -> find_exit rest)
    in
    match find_exit rest with
    | None -> []
    | Some (exit_rec, exit_entries, after_exit) ->
      let deltas =
        List.filter_map
          (fun slot ->
            match (slot_value entry_entries slot, slot_value exit_entries slot) with
            | Some a, Some b when not (Int64.equal a b) -> Some (slot, Int64.sub b a)
            | _ -> None)
          event_counter_slots
      in
      if deltas = [] then []
      else
        (* Does the host still see the accumulated values (no reset)? *)
        let host_sees =
          List.exists
            (fun (r : Log.record) ->
              match (r.Log.ctx, hpm_snapshot_entries r) with
              | Exec_context.Host _, Some entries ->
                List.exists
                  (fun (slot, _) ->
                    match (slot_value entries slot, slot_value exit_entries slot) with
                    | Some now, Some at_exit -> Int64.unsigned_compare now at_exit >= 0
                    | _ -> false)
                  deltas
              | _ -> false)
            after_exit
        in
        (* And did untrusted code actually read an event counter after the
           enclave ran? *)
        let host_read =
          List.exists
            (fun (r : Log.record) ->
              match (r.Log.ctx, r.Log.event) with
              | ( Exec_context.Host _,
                  Log.Write { structure = Structure.Reg_file; entries; origin = Log.Csr_read } ) ->
                r.Log.cycle > exit_rec.Log.cycle
                && List.exists
                     (fun (e : Log.entry) ->
                       contains_substring ~needle:"csrr hpmcounter" e.Log.note)
                     entries
              | _ -> false)
            after_exit
        in
        if host_sees && host_read then
          [
            {
              case = Some Case.M1;
              secret = None;
              structure = Structure.Hpm_counters;
              cycle = exit_rec.Log.cycle;
              ctx = Exec_context.Host Priv.Supervisor;
              origin = Some Log.Csr_read;
              detection = Residue;
              note =
                String.concat ", "
                  (List.map
                     (fun (slot, d) -> Printf.sprintf "hpm%d delta=%Ld" slot d)
                     deltas);
              last_pc = None;
            };
          ]
        else [])

(* {2 Entry point} *)

let dedupe findings =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun f ->
      let key =
        ( f.case,
          f.structure,
          f.detection,
          match f.secret with Some s -> Some s.Secret.value | None -> None )
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    findings

let case_rank f =
  match f.case with Some _ -> 0 | None -> 1

let finish findings =
  let findings = dedupe findings in
  List.stable_sort (fun a b -> Int.compare (case_rank a) (case_rank b)) findings

(* [finish] of the reference, assembled directly: metadata findings
   carry no secret, so their dedupe keys never meet a data finding's,
   and all of them are classified. *)
let check log tracker =
  let secrets = Secret.all tracker in
  let values =
    Log.Values.of_list (List.map (fun (s : Secret.seeded) -> s.Secret.value) secrets)
  in
  let sc = Domain.DLS.get scratch_key in
  let metadata = scan sc log values in
  let classified, residue = emit_data sc log values (List.rev secrets) in
  classified @ dedupe (check_btb_residue metadata @ check_hpc metadata) @ residue

let check_reference log tracker =
  let records = Log.to_list log in
  finish
    (check_data_naive log tracker records
    @ check_btb_residue records @ check_hpc records)

let distinct_cases findings =
  List.sort_uniq Case.compare (List.filter_map (fun f -> f.case) findings)

let residue_warnings findings =
  List.length (List.filter (fun f -> f.case = None) findings)
