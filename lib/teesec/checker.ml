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

(* Classify one data observation. *)
let classify ~(structure : Structure.t) ~origin ~(owner : Secret.owner)
    ~(ctx : Exec_context.t) ~note ~detection =
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
    else if contains_substring ~needle:"forwarded-from-store-buffer" note then
      Some Case.D8
    else if contains_substring ~needle:"transient" note then
      cross_boundary_case owner ctx
    else None
  | Structure.L1i_data | Structure.L1d_data | Structure.L2_data
  | Structure.Store_buffer | Structure.Store_queue | Structure.Load_queue
  | Structure.Dtlb | Structure.Ptw_cache | Structure.Ubtb | Structure.Ftb
  | Structure.Hpm_counters | Structure.Wb_buffer | Structure.Prefetcher ->
    None

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

   The log is read once through a cursor ({!scan}).  Entry data is
   compared in place against the seeded secret values, so only the
   matching entries are decoded ({!hit}s, with their record and entry
   index), together with every commit and the few records the metadata
   checks read.  Three indexes then replace the naive nested loops:

   - a value-keyed table mapping each secret value to the secrets that
     carry it, so every hit costs one lookup instead of a scan of all
     seeded secrets;
   - a per-(structure, value) list of secret-valued writes in record
     order, so residue provenance folds over a handful of candidates
     instead of the full log;
   - a cycle-sorted commit array, so the last-committed-PC annotation is
     a binary search instead of a scan per finding.

   Emissions are tagged with (secret, record, entry) positions and
   sorted back into the naive implementation's emission order, so the
   returned list — and therefore which duplicate survives [dedupe] — is
   identical to the reference. *)

type hit = {
  h_record : int;
  h_entry : int;
  h_structure : Structure.t;
  h_origin : Log.origin option;  (** [None] for a [Snapshot] hit. *)
  h_cycle : int;
  h_ctx : Exec_context.t;
  h_value : Word.t;
  h_note : string;  (** The entry's note; [""] for snapshot hits. *)
}

type scanned = {
  hits : hit list;  (** In record, then entry order. *)
  commits : (int * Word.t) list;  (** [(cycle, pc)] in record order. *)
  metadata : Log.record list;
      (** The records {!check_btb_residue} and {!check_hpc} read, in
          record order: host BTB snapshots, HPM snapshots and CSR-read
          register writes.  Both checks ignore every other record. *)
}

let metadata_record c =
  match (Log.Cursor.kind c, Log.Cursor.structure c) with
  | Log.Snapshot_kind, (Structure.Ubtb | Structure.Ftb) -> (
    match Log.Cursor.ctx c with Exec_context.Host _ -> true | _ -> false)
  | Log.Snapshot_kind, Structure.Hpm_counters -> true
  | Log.Write_kind, Structure.Reg_file -> Log.Cursor.origin c = Log.Csr_read
  | _ -> false

let scan log values =
  let hits = ref [] and commits = ref [] and metadata = ref [] in
  Log.iter log (fun c ->
      match Log.Cursor.kind c with
      | Log.Commit_kind -> commits := (Log.Cursor.cycle c, Log.Cursor.pc c) :: !commits
      | (Log.Write_kind | Log.Snapshot_kind) as kind ->
        if metadata_record c then metadata := Log.Cursor.record c :: !metadata;
        let i = ref (Log.Cursor.next_match c values 0) in
        if !i >= 0 then begin
          let write = kind = Log.Write_kind in
          let h_structure = Log.Cursor.structure c in
          let h_origin = if write then Some (Log.Cursor.origin c) else None in
          let h_cycle = Log.Cursor.cycle c and h_ctx = Log.Cursor.ctx c in
          while !i >= 0 do
            hits :=
              {
                h_record = Log.Cursor.index c;
                h_entry = !i;
                h_structure;
                h_origin;
                h_cycle;
                h_ctx;
                h_value = Log.Cursor.data c !i;
                h_note = (if write then Log.Cursor.note c !i else "");
              }
              :: !hits;
            i := Log.Cursor.next_match c values (!i + 1)
          done
        end
      | Log.Mode_switch_kind | Log.Exception_kind | Log.Fault_kind -> ());
  { hits = List.rev !hits; commits = List.rev !commits; metadata = List.rev !metadata }

let check_data secrets { hits; commits; _ } =
  match secrets with
  | [] -> []
  | secrets ->
    (* Secret value -> [(position in Secret.all, secret)], ascending. *)
    let by_value : (Word.t, (int * Secret.seeded) list) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iteri
      (fun si (s : Secret.seeded) ->
        let prev =
          Option.value (Hashtbl.find_opt by_value s.Secret.value) ~default:[]
        in
        Hashtbl.replace by_value s.Secret.value ((si, s) :: prev))
      secrets;
    Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_value;
    let matches h = Option.value (Hashtbl.find_opt by_value h.h_value) ~default:[] in
    (* Secret-valued writes, in record order. *)
    let writes : (Structure.t * Word.t, (int * Log.origin) list) Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter
      (fun h ->
        match h.h_origin with
        | Some origin ->
          let key = (h.h_structure, h.h_value) in
          let prev = Option.value (Hashtbl.find_opt writes key) ~default:[] in
          Hashtbl.replace writes key ((h.h_cycle, origin) :: prev)
        | None -> ())
      hits;
    Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) writes;
    let commits = Array.of_list commits in
    (* Stable by cycle: record order survives among equal cycles, so the
       last eligible slot is the record-order-last commit of the maximal
       cycle — exactly what [Log.last_commit_before] returns. *)
    Array.stable_sort (fun (c1, _) (c2, _) -> Int.compare c1 c2) commits;
    let last_commit_before ~cycle =
      let rec bs lo hi =
        (* invariant: commits below [lo] have cycle <= [cycle], commits
           from [hi] up have cycle > [cycle] *)
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if fst commits.(mid) <= cycle then bs (mid + 1) hi else bs lo mid
      in
      let i = bs 0 (Array.length commits) in
      if i = 0 then None else Some (snd commits.(i - 1))
    in
    let provenance ~structure ~value ~before_cycle =
      match Hashtbl.find_opt writes (structure, value) with
      | None -> None
      | Some l ->
        Option.map snd
          (List.fold_left
             (fun best (cycle, origin) ->
               if cycle > before_cycle then best
               else
                 match best with
                 | Some (c, _) when c >= cycle -> best
                 | _ -> Some (cycle, origin))
             None l)
    in
    (* Detection, tagging each emission with its position in the naive
       (secret-major, record, entry) emission order. *)
    let emissions = ref [] in
    let emit ~si ~ei h ~secret ~origin ~detection ~note =
      let case =
        classify ~structure:h.h_structure ~origin ~owner:secret.Secret.owner
          ~ctx:h.h_ctx ~note ~detection
      in
      emissions :=
        ( si,
          h.h_record,
          ei,
          {
            case;
            secret = Some secret;
            structure = h.h_structure;
            cycle = h.h_cycle;
            ctx = h.h_ctx;
            origin;
            detection;
            note;
            last_pc = last_commit_before ~cycle:h.h_cycle;
          } )
        :: !emissions
    in
    (* The naive pass emits at most once per (secret, snapshot). *)
    let seen_record = ref (-1) and seen = ref [] in
    List.iter
      (fun h ->
        if h.h_origin <> None then
          List.iter
            (fun (si, (s : Secret.seeded)) ->
              if not (Secret.authorized s.Secret.owner h.h_ctx) then
                let eligible =
                  if s.Secret.derived then
                    Structure.equal h.h_structure Structure.Reg_file
                    && contains_substring ~needle:"transient" h.h_note
                  else true
                in
                if eligible then
                  emit ~si ~ei:h.h_entry h ~secret:s ~origin:h.h_origin
                    ~detection:Fetched ~note:h.h_note)
            (matches h)
        else begin
          if h.h_record <> !seen_record then begin
            seen_record := h.h_record;
            seen := []
          end;
          List.iter
            (fun (si, (s : Secret.seeded)) ->
              if
                (not s.Secret.derived)
                && (not (List.mem si !seen))
                && not (Secret.authorized s.Secret.owner h.h_ctx)
              then begin
                seen := si :: !seen;
                let origin =
                  provenance ~structure:h.h_structure ~value:s.Secret.value
                    ~before_cycle:h.h_cycle
                in
                emit ~si ~ei:0 h ~secret:s ~origin ~detection:Residue
                  ~note:"snapshot residue"
              end)
            (matches h)
        end)
      hits;
    (* The naive pass prepends as it emits, so its result is emission
       order reversed: sort the tags descending. *)
    let descending (a_si, a_ri, a_ei, _) (b_si, b_ri, b_ei, _) =
      if a_si <> b_si then Int.compare b_si a_si
      else if a_ri <> b_ri then Int.compare b_ri a_ri
      else Int.compare b_ei a_ei
    in
    List.map (fun (_, _, _, f) -> f) (List.sort descending !emissions)

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

let check log tracker =
  let secrets = Secret.all tracker in
  let scanned =
    scan log (Log.Values.of_list (List.map (fun (s : Secret.seeded) -> s.Secret.value) secrets))
  in
  let metadata = scanned.metadata in
  finish (check_data secrets scanned @ check_btb_residue metadata @ check_hpc metadata)

let check_reference log tracker =
  let records = Log.to_list log in
  finish
    (check_data_naive log tracker records
    @ check_btb_residue records @ check_hpc records)

let distinct_cases findings =
  List.sort_uniq Case.compare (List.filter_map (fun f -> f.case) findings)

let residue_warnings findings =
  List.length (List.filter (fun f -> f.case = None) findings)
