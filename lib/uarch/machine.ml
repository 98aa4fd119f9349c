open Import

type cause =
  | Load_access_fault
  | Store_access_fault
  | Load_page_fault
  | Store_page_fault
  | Illegal_instruction
  | Env_call

let cause_to_string = function
  | Load_access_fault -> "load-access-fault"
  | Store_access_fault -> "store-access-fault"
  | Load_page_fault -> "load-page-fault"
  | Store_page_fault -> "store-page-fault"
  | Illegal_instruction -> "illegal-instruction"
  | Env_call -> "environment-call"

type trap = { cause : cause; tval : Word.t }

(* How a flush primitive behaves under fault injection: executed
   faithfully, silently dropped, or applied to only part of the
   structure. *)
type flush_behaviour = Flush_normal | Flush_dropped | Flush_partial

type t = {
  config : Config.t;
  mem : Memory.t;
  csr : Csr.t;
  pmp : Pmp.t;
  log : Log.t;
  l1 : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  lfb : Lfb.t;
  stb : Store_buffer.t;
  dtlb : Tlb.t;
  ptw_cache : Tlb.t;
  ubtb : Btb.t;
  ftb : Btb.t;
  regfile : Regfile.t;
  regs : Word.t array;
  wb_buffer : Lfb.t;
  mutable fetch_image : (Word.t * int) option;
      (* Binary execution: code range fetched through the I-cache. *)
  mutable last_prefetch : Word.t option;
  mutable prefetch_inhibit : bool;
  mutable cycle : int;
  mutable ctx : Exec_context.t;
  mutable ecall_handler : t -> unit;
  mutable pending_interrupt : (t -> unit) option;
  hpc_banks : (string, Word.t array) Hashtbl.t;
      (* Per-context event-counter banks for the Tag_bpu_hpc extension. *)
  (* Fault-injection state (driven by lib/inject). *)
  mutable advance_hook : (t -> unit) option;
  mutable in_advance_hook : bool;
  mutable flush_faults : (Structure.t * flush_behaviour) list;
  mutable pmp_stuck_grant : bool;
  mutable snapshot_delay : int;
  mutable faults_logged : int;  (* [Fault_injected] records so far *)
}

let create ?(wave = false) config =
  {
    config;
    mem = Memory.create ();
    csr = Csr.create ();
    pmp = Pmp.create ();
    log = Log.create ~wave ();
    l1 = Cache.create ~sets:config.Config.l1_sets ~ways:config.Config.l1_ways;
    l1i = Cache.create ~sets:config.Config.l1i_sets ~ways:config.Config.l1i_ways;
    l2 = Cache.create ~sets:config.Config.l2_sets ~ways:config.Config.l2_ways;
    lfb =
      Lfb.create ~entries:config.Config.lfb_entries
        ~retains_stale:config.Config.lfb_retains_stale;
    stb = Store_buffer.create ~entries:config.Config.store_buffer_entries;
    dtlb = Tlb.create ~entries:config.Config.dtlb_entries;
    ptw_cache = Tlb.create ~entries:config.Config.ptw_cache_entries;
    ubtb =
      Btb.create
        ~tagged_by_owner:(Config.mitigated config Mitigation.Tag_bpu_hpc)
        ~entries:config.Config.ubtb_entries
        ~tag_bits:config.Config.ubtb_tag_bits ~ways:1 ();
    ftb =
      Btb.create
        ~tagged_by_owner:(Config.mitigated config Mitigation.Tag_bpu_hpc)
        ~entries:(config.Config.ftb_sets * config.Config.ftb_ways)
        ~tag_bits:config.Config.ftb_tag_bits ~ways:config.Config.ftb_ways ();
    regfile = Regfile.create ~regs:config.Config.phys_regs;
    regs = Array.make 32 0L;
    wb_buffer =
      Lfb.create ~entries:config.Config.wb_buffer_entries ~retains_stale:true;
    fetch_image = None;
    last_prefetch = None;
    prefetch_inhibit = false;
    cycle = 0;
    ctx = Exec_context.Host Priv.Supervisor;
    ecall_handler = (fun _ -> ());
    pending_interrupt = None;
    hpc_banks = Hashtbl.create 8;
    advance_hook = None;
    in_advance_hook = false;
    flush_faults = [];
    pmp_stuck_grant = false;
    snapshot_delay = 0;
    faults_logged = 0;
  }

let memory t = t.mem
let csr t = t.csr
let pmp t = t.pmp
let log t = t.log
let cycle t = t.cycle

(* {2 Wave taps}

   A tapped machine's log also keeps its wave events (see [Simlog.Log]).
   Only events the log does not already record are tapped: lib/wave
   derives the rest from their records.  Every emission site pays one
   predicted branch and no allocation with taps off; a site whose
   [value] (usually an occupancy) costs anything to compute tests
   [wave_enabled] before computing it. *)

let wave_enabled t = Log.tapped t.log

let tap t ~kind ~structure ~slot ~value =
  if wave_enabled t then
    Wave.Event.tap t.log ~kind ~cycle:t.cycle ~structure_id:(Structure.to_code structure)
      ~slot ~ctx:t.ctx ~value

let advance t n =
  assert (n >= 0);
  t.cycle <- t.cycle + n;
  Csr.bump_counter t.csr 0 ~by:n;
  match t.advance_hook with
  | Some hook when not t.in_advance_hook ->
    (* The hook's own perturbations burn cycles too; don't recurse. *)
    t.in_advance_hook <- true;
    Fun.protect ~finally:(fun () -> t.in_advance_hook <- false) (fun () -> hook t)
  | Some _ | None -> ()

let context t = t.ctx
let set_context t ctx = t.ctx <- ctx

let priv_of_context = function
  | Exec_context.Host p -> p
  | Exec_context.Enclave _ -> Priv.User
  | Exec_context.Monitor -> Priv.Machine

let priv t = priv_of_context t.ctx
let get_reg t r = if r = 0 then 0L else t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v

(* {2 Logging helpers} *)

let record t event = Log.record t.log ~cycle:t.cycle ~ctx:t.ctx event

(* Opens a [Write] record; the caller appends its entries straight into
   the log, so no event, entry or list is built. *)
let begin_write t ~structure ~origin =
  Log.begin_write t.log ~cycle:t.cycle ~ctx:t.ctx ~structure ~origin

let log_exception t ~cause ~pc =
  Hpc.bump t.csr Hpc.Exception_event;
  record t (Log.Exception_raised { cause = cause_to_string cause; pc })

(* The only emitter of [Fault_injected]: the counter it bumps is a
   unit's fault count and the injector's test for "this plan changed
   nothing", without decoding the log. *)
let log_fault t ?structure detail =
  t.faults_logged <- t.faults_logged + 1;
  record t (Log.Fault_injected { structure; detail })

let faults_logged t = t.faults_logged

(* Every PMP check in the data path goes through this wrapper so the
   stuck-at-grant fault can override the verdict (and so the wave tap
   sees every grant/deny decision). *)
let pmp_allows t ~priv ~kind ~addr ~size =
  let allowed = t.pmp_stuck_grant || Pmp.allows t.pmp ~priv ~kind ~addr ~size in
  if wave_enabled t then
    Wave.Event.tap t.log ~kind:Wave.Event.Pmp_check ~cycle:t.cycle
      ~structure_id:Wave.Event.no_structure ~slot:0 ~ctx:t.ctx
      ~value:(if allowed then 1 else 0);
  allowed

let flush_behaviour_of t structure =
  Option.value (List.assoc_opt structure t.flush_faults) ~default:Flush_normal

(* Register-file write-back: every produced value lands in a physical
   register and is logged, transient or not. *)
let writeback t ~value ~origin ~transient ~note =
  let slot = Regfile.writeback t.regfile ~value ~ctx:t.ctx ~transient in
  let note = if transient then note ^ " transient" else note in
  begin_write t ~structure:Structure.Reg_file ~origin;
  Log.add_entry t.log ~slot ~note value

(* {2 Memory hierarchy internals} *)

let latencies t = t.config.Config.latencies
let line_base addr = Word.align_down addr ~alignment:Memory.line_bytes
let granule_base addr = Int64.logand addr (-8L)
let word_in_line addr = Int64.to_int (Int64.shift_right_logical addr 3) land 7

(* Insert into the L2, writing any displaced dirty victim to memory. *)
let insert_l2 t ~addr line =
  tap t ~kind:Wave.Event.Fill ~structure:Structure.L2_data ~slot:0 ~value:0;
  match Cache.insert t.l2 ~addr line with
  | Some (victim_addr, victim_line, dirty) ->
    tap t ~kind:Wave.Event.Evict ~structure:Structure.L2_data ~slot:0 ~value:0;
    if dirty then Memory.write_line t.mem ~addr:victim_addr victim_line
  | None -> ()

(* Fetch a line from L2 or memory; returns the line and the latency. *)
let fetch_line t ~paddr =
  match Cache.lookup t.l2 ~addr:paddr with
  | Some line -> (line, (latencies t).Config.l2_hit)
  | None ->
    let line = Memory.read_line t.mem ~addr:paddr in
    insert_l2 t ~addr:paddr line;
    (line, (latencies t).Config.memory)

let log_wb_buffer t ~addr line ~origin =
  let slot = Lfb.fill t.wb_buffer ~addr ~data:line in
  if wave_enabled t then
    tap t ~kind:Wave.Event.Fill ~structure:Structure.Wb_buffer ~slot
      ~value:(1 + Lfb.occupied t.wb_buffer);
  begin_write t ~structure:Structure.Wb_buffer ~origin;
  Log.add_line t.log ~slot ~addr line

(* Write back a dirty L1 victim: wb-buffer, then L2 and memory. *)
let writeback_victim t ~addr line ~origin =
  log_wb_buffer t ~addr line ~origin;
  insert_l2 t ~addr line;
  Memory.write_line t.mem ~addr line

let insert_l1 t ~paddr line ~origin =
  tap t ~kind:Wave.Event.Fill ~structure:Structure.L1d_data ~slot:0 ~value:0;
  match Cache.insert t.l1 ~addr:paddr line with
  | Some (victim_addr, victim_line, dirty) ->
    tap t ~kind:Wave.Event.Evict ~structure:Structure.L1d_data ~slot:0 ~value:0;
    if dirty then writeback_victim t ~addr:victim_addr victim_line ~origin
  | None -> ()

(* Fill the LFB with the line for [paddr]; log the fill with its access
   path provenance.  Returns the line. *)
let lfb_fill t ~paddr ~origin =
  let line, lat = fetch_line t ~paddr in
  let base = line_base paddr in
  let slot = Lfb.fill t.lfb ~addr:base ~data:line in
  if wave_enabled t then
    tap t ~kind:Wave.Event.Fill ~structure:Structure.Lfb ~slot
      ~value:(1 + Lfb.occupied t.lfb);
  begin_write t ~structure:Structure.Lfb ~origin;
  Log.add_line t.log ~slot ~addr:base line;
  Lfb.complete t.lfb ~slot;
  (line, lat)

let prefetch_next_line t ~paddr =
  if
    t.config.Config.has_l1_prefetcher && not t.prefetch_inhibit
  then begin
    t.prefetch_inhibit <- true;
    let next = Int64.add (line_base paddr) (Int64.of_int Memory.line_bytes) in
    (* The hardware prefetcher performs no permission check (D1). *)
    let _line, _lat = lfb_fill t ~paddr:next ~origin:Log.Prefetch in
    t.last_prefetch <- Some next;
    begin_write t ~structure:Structure.Prefetcher ~origin:Log.Prefetch;
    Log.add_addr_entry t.log ~slot:0 ~addr:next ~note:"next-line request" next;
    advance t 1;
    t.prefetch_inhibit <- false
  end

(* Demand refill of the L1: goes through the LFB, installs the line, and
   triggers the next-line prefetcher. *)
let refill_l1 t ~paddr ~origin ~trigger_prefetch =
  let line, lat = lfb_fill t ~paddr ~origin in
  insert_l1 t ~paddr line ~origin;
  advance t lat;
  if trigger_prefetch then prefetch_next_line t ~paddr;
  line

(* Read one aligned 8-byte word through the hierarchy (used by the PTW
   and by drains); performs no permission check itself. *)
let hierarchy_read_word t ~paddr ~origin ~trigger_prefetch =
  let g = granule_base paddr in
  match Cache.read_word t.l1 ~addr:g with
  | Some w ->
    tap t ~kind:Wave.Event.Hit ~structure:Structure.L1d_data ~slot:0 ~value:0;
    advance t (latencies t).Config.l1_hit;
    w
  | None ->
    Hpc.bump t.csr Hpc.L1d_miss;
    let line = refill_l1 t ~paddr:g ~origin ~trigger_prefetch in
    line.(word_in_line g)

(* {2 Store buffer drain} *)

let merge_into_word ~old ~value ~offset ~size =
  if size = 8 then value
  else
    let bits = size * 8 and pos = offset * 8 in
    let m = Int64.shift_left (Word.mask bits) pos in
    Int64.logor
      (Int64.logand old (Int64.lognot m))
      (Int64.logand (Int64.shift_left value pos) m)

let drain_entries t entries =
  List.iter
    (fun (e : Store_buffer.entry) ->
      let g = granule_base e.addr in
      (* A full-word store replaces the whole word: on a hit, one lookup
         writes it. *)
      if not (e.size = 8 && Cache.write_word t.l1 ~addr:g e.value) then begin
        if not (Cache.contains t.l1 ~addr:g) then begin
          Hpc.bump t.csr Hpc.L1d_miss;
          (* The refill drags the line's *previous* contents through the
             LFB — with a memset origin this is exactly leakage case D3. *)
          ignore (refill_l1 t ~paddr:g ~origin:e.origin ~trigger_prefetch:false)
        end;
        let old = Option.value (Cache.read_word t.l1 ~addr:g) ~default:0L in
        let offset = Int64.to_int (Int64.sub e.addr g) in
        let merged = merge_into_word ~old ~value:e.value ~offset ~size:e.size in
        ignore (Cache.write_word t.l1 ~addr:g merged)
      end;
      if wave_enabled t then
        tap t ~kind:Wave.Event.Evict ~structure:Structure.Store_buffer ~slot:0
          ~value:(1 + Store_buffer.occupancy t.stb);
      advance t 1)
    entries

let drain_store_buffer t = drain_entries t (Store_buffer.drain t.stb)

let fence t = drain_store_buffer t

(* {2 Address translation} *)

type translated = Phys of Word.t | Trans_fault of trap

let page_fault_of = function
  | Pmp.Read -> Load_page_fault
  | Pmp.Write -> Store_page_fault
  | Pmp.Execute -> Load_page_fault

let access_fault_of = function
  | Pmp.Read -> Load_access_fault
  | Pmp.Write -> Store_access_fault
  | Pmp.Execute -> Load_access_fault

let perm_allows (perm : Page_table.pte_perm) = function
  | Pmp.Read -> perm.Page_table.read
  | Pmp.Write -> perm.Page_table.write
  | Pmp.Execute -> perm.Page_table.execute

let ptw_cache_insert t ~vaddr ~paddr ~perm =
  Tlb.insert t.ptw_cache ~vaddr ~paddr ~perm;
  if wave_enabled t then
    tap t ~kind:Wave.Event.Fill ~structure:Structure.Ptw_cache ~slot:0
      ~value:(1 + Tlb.occupancy t.ptw_cache);
  begin_write t ~structure:Structure.Ptw_cache ~origin:Log.Ptw_walk;
  Log.add_addr_entry t.log ~slot:0 ~addr:(granule_base vaddr) ~note:"pte refill" paddr

(* Hardware page-table walk.  All accesses are implicit.  The two cores
   differ in when the PMP check happens relative to the memory request:
   XiangShan checks first and never issues a denied request; BOOM issues
   the request over the L1D channel and only faults afterwards, by which
   time the LFB holds the (possibly enclave) line — leakage case D2. *)
let ptw_walk t ~root ~vaddr ~kind =
  let clear_illegal = Config.mitigated t.config Mitigation.Clear_illegal_data_returns in
  let rec step table level =
    Hpc.bump t.csr Hpc.Ptw_walk_event;
    let pte_address = Page_table.pte_addr ~table_base:table ~vaddr ~level in
    let pte_allowed =
      pmp_allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:pte_address ~size:8
    in
    if t.config.Config.ptw_pmp_precheck && not pte_allowed then begin
      (* No request is created at all; the walk aborts cleanly. *)
      advance t 2;
      Trans_fault { cause = access_fault_of kind; tval = vaddr }
    end
    else if clear_illegal && not pte_allowed then begin
      (* Mitigated datapath: the access happens but returns zeros and
         suppresses the fill. *)
      advance t 2;
      Trans_fault { cause = access_fault_of kind; tval = vaddr }
    end
    else begin
      let pte_val =
        hierarchy_read_word t ~paddr:pte_address ~origin:Log.Ptw_walk
          ~trigger_prefetch:false
      in
      if not pte_allowed then
        (* BOOM: the fill above already happened; the fault comes after. *)
        Trans_fault { cause = access_fault_of kind; tval = vaddr }
      else
        match Page_table.decode_pte pte_val with
        | Page_table.Invalid ->
          Trans_fault { cause = page_fault_of kind; tval = vaddr }
        | Page_table.Leaf { paddr; perm } ->
          let page = Word.align_down vaddr ~alignment:Page_table.page_size in
          Tlb.insert t.dtlb ~vaddr ~paddr ~perm;
          if wave_enabled t then
            tap t ~kind:Wave.Event.Fill ~structure:Structure.Dtlb ~slot:0
              ~value:(1 + Tlb.occupancy t.dtlb);
          ptw_cache_insert t ~vaddr:page ~paddr ~perm;
          if perm_allows perm kind then
            Phys (Int64.logor paddr (Word.extract vaddr ~pos:0 ~len:12))
          else Trans_fault { cause = page_fault_of kind; tval = vaddr }
        | Page_table.Pointer base ->
          if level = 0 then Trans_fault { cause = page_fault_of kind; tval = vaddr }
          else step base (level - 1)
    end
  in
  step root (Page_table.levels - 1)

let translate t ~vaddr ~kind =
  if Priv.equal (priv t) Priv.Machine then Phys vaddr
  else
    match Page_table.root_of_satp (Csr.raw_read t.csr Csr.Satp) with
    | None -> Phys vaddr
    | Some root -> (
      match Tlb.lookup t.dtlb ~vaddr with
      | Some entry ->
        tap t ~kind:Wave.Event.Hit ~structure:Structure.Dtlb ~slot:0 ~value:0;
        if perm_allows entry.Tlb.perm kind then Phys (Tlb.translate entry ~vaddr)
        else Trans_fault { cause = page_fault_of kind; tval = vaddr }
      | None ->
        Hpc.bump t.csr Hpc.Dtlb_miss;
        ptw_walk t ~root ~vaddr ~kind)

(* {2 Loads} *)

type access_result = {
  value : Word.t;
  fault : trap option;
  latency : int;
  transient_forward : bool;
}

let extract_from_word w ~offset ~size =
  if size = 8 then w else Word.extract w ~pos:(offset * 8) ~len:(size * 8)

(* Faulting load: the permission check failed but the datapath effects
   the core exhibits still happen. *)
let faulting_load t ~paddr ~size ~origin =
  let trap = { cause = Load_access_fault; tval = paddr } in
  let offset = Int64.to_int (Int64.sub paddr (granule_base paddr)) in
  if Config.mitigated t.config Mitigation.Clear_illegal_data_returns then begin
    advance t (latencies t).Config.l1_hit;
    { value = 0L; fault = Some trap; latency = (latencies t).Config.l1_hit; transient_forward = false }
  end
  else
    let forwarded =
      if t.config.Config.store_buffer_forwards_faulting then
        match Store_buffer.forward t.stb ~addr:paddr ~size with
        | Store_buffer.Forwarded v -> Some v
        | Store_buffer.Partial_conflict | Store_buffer.No_match -> None
      else None
    in
    match forwarded with
    | Some v ->
      (* XiangShan: the store buffer resolves the load and transiently
         supplies enclave data to dependents (D8). *)
      Hpc.bump t.csr Hpc.Store_to_load_forward;
      tap t ~kind:Wave.Event.Hit ~structure:Structure.Store_buffer ~slot:0 ~value:0;
      writeback t ~value:v ~origin ~transient:true ~note:"forwarded-from-store-buffer";
      advance t 2;
      { value = v; fault = Some trap; latency = 2; transient_forward = true }
    | None -> (
      match Cache.read_word t.l1 ~addr:(granule_base paddr) with
      | Some w ->
        (* Both cores: the cache request races the permission check and
           the hit response is forwarded before the squash (D4-D7). *)
        let v = extract_from_word w ~offset ~size in
        tap t ~kind:Wave.Event.Hit ~structure:Structure.L1d_data ~slot:0 ~value:0;
        writeback t ~value:v ~origin ~transient:true ~note:"l1-hit-before-squash";
        advance t (latencies t).Config.l1_hit;
        { value = v; fault = Some trap; latency = (latencies t).Config.l1_hit; transient_forward = true }
      | None ->
        if t.config.Config.faulting_miss_fake_hit then begin
          (* XiangShan: the slower miss path leaves time to handle the
             exception; the L1D answers with a fake hit and zero data
             and no fill request is generated. *)
          advance t (latencies t).Config.l1_miss;
          { value = 0L; fault = Some trap; latency = (latencies t).Config.l1_miss; transient_forward = false }
        end
        else begin
          (* BOOM: the miss is not squashed; the request goes to the L2
             and the LFB receives the whole secret line. *)
          Hpc.bump t.csr Hpc.L1d_miss;
          let _line, lat = lfb_fill t ~paddr ~origin in
          advance t lat;
          { value = 0L; fault = Some trap; latency = lat; transient_forward = false }
        end)

let rec normal_load t ~paddr ~size ~origin =
  let offset = Int64.to_int (Int64.sub paddr (granule_base paddr)) in
  match Store_buffer.forward t.stb ~addr:paddr ~size with
  | Store_buffer.Forwarded v ->
    Hpc.bump t.csr Hpc.Store_to_load_forward;
    tap t ~kind:Wave.Event.Hit ~structure:Structure.Store_buffer ~slot:0 ~value:0;
    advance t 2;
    { value = v; fault = None; latency = 2; transient_forward = false }
  | Store_buffer.Partial_conflict ->
    (* A younger store partially overlaps the load: the LSU drains the
       buffer and replays the access from the cache. *)
    drain_store_buffer t;
    advance t 2;
    normal_load t ~paddr ~size ~origin
  | Store_buffer.No_match -> (
    match Cache.read_word t.l1 ~addr:(granule_base paddr) with
    | Some w ->
      tap t ~kind:Wave.Event.Hit ~structure:Structure.L1d_data ~slot:0 ~value:0;
      advance t (latencies t).Config.l1_hit;
      { value = extract_from_word w ~offset ~size; fault = None; latency = (latencies t).Config.l1_hit; transient_forward = false }
    | None ->
      Hpc.bump t.csr Hpc.L1d_miss;
      let line = refill_l1 t ~paddr ~origin ~trigger_prefetch:true in
      let w = line.(word_in_line paddr) in
      { value = extract_from_word w ~offset ~size; fault = None; latency = (latencies t).Config.l2_hit; transient_forward = false })

let rec load ?(origin = Log.Explicit_load) t ~vaddr ~size () =
  assert (size >= 1 && size <= 8);
  let offset = Int64.to_int (Int64.sub vaddr (granule_base vaddr)) in
  if offset + size > 8 then begin
    (* Misaligned access straddling a granule: split in two. *)
    let size1 = 8 - offset in
    let r1 = load ~origin t ~vaddr ~size:size1 () in
    let r2 = load ~origin t ~vaddr:(Int64.add vaddr (Int64.of_int size1)) ~size:(size - size1) () in
    {
      value = Int64.logor r1.value (Int64.shift_left r2.value (size1 * 8));
      fault = (match r1.fault with Some _ -> r1.fault | None -> r2.fault);
      latency = r1.latency + r2.latency;
      transient_forward = r1.transient_forward || r2.transient_forward;
    }
  end
  else begin
    Hpc.bump t.csr Hpc.L1d_access;
    match translate t ~vaddr ~kind:Pmp.Read with
    | Trans_fault trap ->
      advance t 2;
      { value = 0L; fault = Some trap; latency = 2; transient_forward = false }
    | Phys paddr ->
      if pmp_allows t ~priv:(priv t) ~kind:Pmp.Read ~addr:paddr ~size then
        normal_load t ~paddr ~size ~origin
      else faulting_load t ~paddr ~size ~origin
  end

(* {2 Stores} *)

let rec store ?(origin = Log.Explicit_store) t ~vaddr ~size ~value () =
  assert (size >= 1 && size <= 8);
  let offset = Int64.to_int (Int64.sub vaddr (granule_base vaddr)) in
  if offset + size > 8 then begin
    let size1 = 8 - offset in
    let f1 = store ~origin t ~vaddr ~size:size1 ~value () in
    let f2 =
      store ~origin t
        ~vaddr:(Int64.add vaddr (Int64.of_int size1))
        ~size:(size - size1)
        ~value:(Int64.shift_right_logical value (size1 * 8))
        ()
    in
    match f1 with Some _ -> f1 | None -> f2
  end
  else begin
    Hpc.bump t.csr Hpc.L1d_access;
    match translate t ~vaddr ~kind:Pmp.Write with
    | Trans_fault trap ->
      advance t 2;
      Some trap
    | Phys paddr ->
      if not (pmp_allows t ~priv:(priv t) ~kind:Pmp.Write ~addr:paddr ~size) then begin
        advance t 2;
        Some { cause = Store_access_fault; tval = paddr }
      end
      else begin
        if Store_buffer.is_full t.stb then drain_store_buffer t;
        let entry =
          {
            Store_buffer.addr = paddr;
            size;
            value = extract_from_word value ~offset:0 ~size;
            ctx_note = Exec_context.to_string t.ctx;
            origin;
          }
        in
        Store_buffer.push t.stb entry;
        if wave_enabled t then
          tap t ~kind:Wave.Event.Fill ~structure:Structure.Store_buffer ~slot:0
            ~value:(1 + Store_buffer.occupancy t.stb);
        begin_write t ~structure:Structure.Store_buffer ~origin;
        Log.add_addr_entry t.log ~slot:0 ~addr:paddr ~note:entry.ctx_note entry.value;
        advance t 1;
        None
      end
  end

let memset_words t ~origin ~addr ~size ~value =
  let base = granule_base addr in
  let words = Int64.to_int (Int64.div (Int64.add size 7L) 8L) in
  for i = 0 to words - 1 do
    let vaddr = Int64.add base (Int64.of_int (i * 8)) in
    ignore (store ~origin t ~vaddr ~size:8 ~value ())
  done;
  drain_store_buffer t

(* {3 The line path}

   With no advance hook and no taps nothing reads the store buffer
   between drains, so the memset's own entries are never materialised:
   words [drained, i) are "pending" behind the real entries, and a drain
   writes them in runs that stay inside one line — one L1 lookup, and on
   a miss one refill, per run.  Each step emits exactly the records,
   cycles and counters [memset_words] does, in the same order. *)

(* Drain the pending words [from, upto) of the region at [base]. *)
let drain_memset_run t ~origin ~base ~from ~upto ~value =
  let i = ref from in
  while !i < upto do
    let addr = Int64.add base (Int64.of_int (!i * 8)) in
    let run = min (upto - !i) ((Memory.line_bytes / 8) - word_in_line addr) in
    if not (Cache.write_run t.l1 ~addr ~n:run value) then begin
      Hpc.bump t.csr Hpc.L1d_miss;
      ignore (refill_l1 t ~paddr:addr ~origin ~trigger_prefetch:false);
      ignore (Cache.write_run t.l1 ~addr ~n:run value)
    end;
    advance t run;
    i := !i + run
  done

let memset_lines t ~origin ~base ~words ~value =
  let note = Exec_context.to_string t.ctx in
  let capacity = t.config.Config.store_buffer_entries in
  let real = ref (Store_buffer.occupancy t.stb) and drained = ref 0 in
  for i = 0 to words - 1 do
    Hpc.bump t.csr Hpc.L1d_access;
    if !real + (i - !drained) >= capacity then begin
      drain_store_buffer t;
      real := 0;
      drain_memset_run t ~origin ~base ~from:!drained ~upto:i ~value;
      drained := i
    end;
    begin_write t ~structure:Structure.Store_buffer ~origin;
    Log.add_addr_entry t.log ~slot:0 ~addr:(Int64.add base (Int64.of_int (i * 8))) ~note value;
    advance t 1
  done;
  drain_store_buffer t;
  drain_memset_run t ~origin ~base ~from:!drained ~upto:words ~value

(* The line path runs when nothing can observe individual words: no
   fault injector armed, taps off, machine mode (translation is the
   identity), and every word's PMP check grants.  An armed hook may
   remove itself mid-region (a spent fault plan does): until it does,
   words go one at a time through [store], exactly [memset_words]' loop
   body; the remainder is then dispatched as a region of its own, and
   the words already stored are ordinary store-buffer entries. *)
let memset_region t ~origin ~addr ~size ~value =
  let base = granule_base addr in
  let words = Int64.to_int (Int64.div (Int64.add size 7L) 8L) in
  let i = ref 0 in
  while !i < words && Option.is_some t.advance_hook do
    let vaddr = Int64.add base (Int64.of_int (!i * 8)) in
    ignore (store ~origin t ~vaddr ~size:8 ~value ());
    incr i
  done;
  let base = Int64.add base (Int64.of_int (!i * 8)) and words = words - !i in
  if
    (not (wave_enabled t))
    && Priv.equal (priv t) Priv.Machine
    && (t.pmp_stuck_grant
       || Pmp.allows_region t.pmp ~priv:Priv.Machine ~kind:Pmp.Write ~addr:base
            ~size:(8 * words))
  then memset_lines t ~origin ~base ~words ~value
  else memset_words t ~origin ~addr:base ~size:(Int64.of_int (8 * words)) ~value

(* {2 Observation} *)

let l1_contains t ~addr = Cache.contains t.l1 ~addr
let l1i_contains t ~addr = Cache.contains t.l1i ~addr
let l2_contains t ~addr = Cache.contains t.l2 ~addr
let lfb_holds t v = Lfb.holds_value t.lfb v
let store_buffer_holds t v = Store_buffer.holds_value t.stb v
let store_buffer_occupancy t = Store_buffer.occupancy t.stb
let rf_holds t v = Regfile.holds_value t.regfile v
let ubtb t = t.ubtb

(* {2 Machine snapshot/restore}

   A [snapshot] captures every piece of mutable machine state except the
   ecall handler (which is a binding into the installed security monitor
   and stays valid across restores) and the fault-injection advance hook
   (snapshots are only taken of clean prefixes; [restore] clears it).
   A snapshot shares what it can instead of copying it, on one
   invariant: a captured array or log segment is never written again,
   and a live structure copies it before its first write.  The log mark
   shares the record segments of the mark before it ({!Log.mark}); the
   caches and BTBs share their round-robin pointers ({!Round_robin});
   cache lines, the register file and the remaining structures are
   copied, the register file as three flat arrays.  Restores blit into
   the live machine's preallocated storage or adopt the shared arrays,
   so they allocate nothing beyond the hashtable refills. *)

type snapshot = {
  snap_mem : Memory.capture;
  snap_csr : Csr.t;
  snap_pmp : Pmp.t;
  snap_log : Log.mark;
  snap_l1 : Cache.capture;
  snap_l1i : Cache.capture;
  snap_l2 : Cache.capture;
  snap_lfb : Lfb.t;
  snap_stb : Store_buffer.t;
  snap_dtlb : Tlb.t;
  snap_ptw_cache : Tlb.t;
  snap_ubtb : Btb.capture;
  snap_ftb : Btb.capture;
  snap_regfile : Regfile.t;
  snap_regs : Word.t array;
  snap_wb_buffer : Lfb.t;
  snap_fetch_image : (Word.t * int) option;
  snap_last_prefetch : Word.t option;
  snap_prefetch_inhibit : bool;
  snap_cycle : int;
  snap_ctx : Exec_context.t;
  snap_pending_interrupt : (t -> unit) option;
  snap_hpc_banks : (string, Word.t array) Hashtbl.t;
  snap_flush_faults : (Structure.t * flush_behaviour) list;
  snap_pmp_stuck_grant : bool;
  snap_snapshot_delay : int;
  snap_faults_logged : int;
}

let snapshot t =
  let hpc_banks = Hashtbl.create (max 1 (Hashtbl.length t.hpc_banks)) in
  Hashtbl.iter (fun k v -> Hashtbl.replace hpc_banks k (Array.copy v)) t.hpc_banks;
  {
    snap_mem = Memory.capture t.mem;
    snap_csr = Csr.copy t.csr;
    snap_pmp = Pmp.copy t.pmp;
    snap_log = Log.mark t.log;
    snap_l1 = Cache.capture t.l1;
    snap_l1i = Cache.capture t.l1i;
    snap_l2 = Cache.capture t.l2;
    snap_lfb = Lfb.copy t.lfb;
    snap_stb = Store_buffer.copy t.stb;
    snap_dtlb = Tlb.copy t.dtlb;
    snap_ptw_cache = Tlb.copy t.ptw_cache;
    snap_ubtb = Btb.capture t.ubtb;
    snap_ftb = Btb.capture t.ftb;
    snap_regfile = Regfile.copy t.regfile;
    snap_regs = Array.copy t.regs;
    snap_wb_buffer = Lfb.copy t.wb_buffer;
    snap_fetch_image = t.fetch_image;
    snap_last_prefetch = t.last_prefetch;
    snap_prefetch_inhibit = t.prefetch_inhibit;
    snap_cycle = t.cycle;
    snap_ctx = t.ctx;
    snap_pending_interrupt = t.pending_interrupt;
    snap_hpc_banks = hpc_banks;
    snap_flush_faults = t.flush_faults;
    snap_pmp_stuck_grant = t.pmp_stuck_grant;
    snap_snapshot_delay = t.snapshot_delay;
    snap_faults_logged = t.faults_logged;
  }

let restore t s =
  Memory.restore_capture s.snap_mem ~into:t.mem;
  Csr.restore_into s.snap_csr ~into:t.csr;
  Pmp.restore_into s.snap_pmp ~into:t.pmp;
  Log.reset_to t.log s.snap_log;
  Cache.restore_capture s.snap_l1 ~into:t.l1;
  Cache.restore_capture s.snap_l1i ~into:t.l1i;
  Cache.restore_capture s.snap_l2 ~into:t.l2;
  Lfb.restore_into s.snap_lfb ~into:t.lfb;
  Store_buffer.restore_into s.snap_stb ~into:t.stb;
  Tlb.restore_into s.snap_dtlb ~into:t.dtlb;
  Tlb.restore_into s.snap_ptw_cache ~into:t.ptw_cache;
  Btb.restore_capture s.snap_ubtb ~into:t.ubtb;
  Btb.restore_capture s.snap_ftb ~into:t.ftb;
  Regfile.restore_into s.snap_regfile ~into:t.regfile;
  Array.blit s.snap_regs 0 t.regs 0 32;
  Lfb.restore_into s.snap_wb_buffer ~into:t.wb_buffer;
  t.fetch_image <- s.snap_fetch_image;
  t.last_prefetch <- s.snap_last_prefetch;
  t.prefetch_inhibit <- s.snap_prefetch_inhibit;
  t.cycle <- s.snap_cycle;
  t.ctx <- s.snap_ctx;
  t.pending_interrupt <- s.snap_pending_interrupt;
  Hashtbl.reset t.hpc_banks;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.hpc_banks k (Array.copy v)) s.snap_hpc_banks;
  t.advance_hook <- None;
  t.in_advance_hook <- false;
  t.flush_faults <- s.snap_flush_faults;
  t.pmp_stuck_grant <- s.snap_pmp_stuck_grant;
  t.snapshot_delay <- s.snap_snapshot_delay;
  t.faults_logged <- s.snap_faults_logged

(* {2 Flushes} *)

(* Flushes cost cycles: one per invalidated line plus the write-back
   traffic for dirty lines.  This is what makes the flush-based
   mitigations measurably slower in the overhead ablation. *)
let flush_l1i t =
  let valid = Cache.occupancy t.l1i in
  ignore (Cache.flush t.l1i);
  tap t ~kind:Wave.Event.Flush ~structure:Structure.L1i_data ~slot:0 ~value:1;
  advance t (2 + valid)

let flush_l1d t =
  match flush_behaviour_of t Structure.L1d_data with
  | Flush_dropped ->
    log_fault t ~structure:Structure.L1d_data "L1D flush dropped";
    advance t 1
  | Flush_partial ->
    (* Only every other valid line actually leaves the cache. *)
    log_fault t ~structure:Structure.L1d_data "L1D flush partial";
    let valid = Cache.valid_lines t.l1 in
    List.iteri
      (fun i (addr, _line) ->
        if i mod 2 = 0 then
          match Cache.evict t.l1 ~addr with
          | Some (line, dirty) ->
            insert_l2 t ~addr line;
            if dirty then Memory.write_line t.mem ~addr line
          | None -> ())
      valid;
    if wave_enabled t then
      tap t ~kind:Wave.Event.Flush ~structure:Structure.L1d_data ~slot:0
        ~value:(1 + Cache.occupancy t.l1);
    advance t (2 + ((List.length valid + 1) / 2))
  | Flush_normal ->
    let valid = Cache.occupancy t.l1 in
    let dirty = Cache.flush t.l1 in
    List.iter
      (fun (addr, line) ->
        insert_l2 t ~addr line;
        Memory.write_line t.mem ~addr line)
      dirty;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.L1d_data ~slot:0 ~value:1;
    advance t (2 + valid + (4 * List.length dirty))

let flush_lfb t =
  match flush_behaviour_of t Structure.Lfb with
  | Flush_dropped ->
    log_fault t ~structure:Structure.Lfb "LFB flush dropped";
    advance t 1
  | Flush_partial ->
    log_fault t ~structure:Structure.Lfb "LFB flush partial";
    Lfb.flush_partial t.lfb;
    Lfb.flush_partial t.wb_buffer;
    if wave_enabled t then
      tap t ~kind:Wave.Event.Flush ~structure:Structure.Lfb ~slot:0
        ~value:(1 + Lfb.occupied t.lfb);
    advance t 2
  | Flush_normal ->
    Lfb.flush t.lfb;
    Lfb.flush t.wb_buffer;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Lfb ~slot:0 ~value:1;
    advance t 2

let flush_store_buffer t =
  match flush_behaviour_of t Structure.Store_buffer with
  | Flush_dropped ->
    log_fault t ~structure:Structure.Store_buffer "store-buffer flush dropped";
    advance t 1
  | Flush_partial ->
    (* Only the oldest half drains; younger stores stay buffered. *)
    log_fault t ~structure:Structure.Store_buffer "store-buffer flush partial";
    let count = (Store_buffer.occupancy t.stb + 1) / 2 in
    drain_entries t (Store_buffer.take_oldest t.stb count);
    if wave_enabled t then
      tap t ~kind:Wave.Event.Flush ~structure:Structure.Store_buffer ~slot:0
        ~value:(1 + Store_buffer.occupancy t.stb);
    advance t 2
  | Flush_normal ->
    drain_store_buffer t;
    Store_buffer.clear t.stb;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Store_buffer ~slot:0 ~value:1;
    advance t 2

let flush_tlb t =
  match flush_behaviour_of t Structure.Dtlb with
  | Flush_dropped ->
    log_fault t ~structure:Structure.Dtlb "DTLB flush dropped";
    advance t 1
  | Flush_partial ->
    log_fault t ~structure:Structure.Dtlb "DTLB flush partial";
    Tlb.drop_half t.dtlb;
    Tlb.drop_half t.ptw_cache;
    if wave_enabled t then
      tap t ~kind:Wave.Event.Flush ~structure:Structure.Dtlb ~slot:0
        ~value:(1 + Tlb.occupancy t.dtlb);
    advance t 2
  | Flush_normal ->
    Tlb.flush t.dtlb;
    Tlb.flush t.ptw_cache;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Dtlb ~slot:0 ~value:1;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Ptw_cache ~slot:0 ~value:1;
    advance t 2

let flush_bpu t =
  match flush_behaviour_of t Structure.Ubtb with
  | Flush_dropped ->
    log_fault t ~structure:Structure.Ubtb "BPU flush dropped";
    advance t 1
  | Flush_partial ->
    (* The uBTB clears but the main FTB survives the "flush". *)
    log_fault t ~structure:Structure.Ubtb "BPU flush partial";
    let occupancy = Btb.occupancy t.ubtb in
    Btb.flush t.ubtb;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Ubtb ~slot:0 ~value:1;
    advance t (2 + (occupancy / 8))
  | Flush_normal ->
    let occupancy = Btb.occupancy t.ubtb + Btb.occupancy t.ftb in
    Btb.flush t.ubtb;
    Btb.flush t.ftb;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Ubtb ~slot:0 ~value:1;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Ftb ~slot:0 ~value:1;
    advance t (2 + (occupancy / 8))

let reset_hpcs t =
  match flush_behaviour_of t Structure.Hpm_counters with
  | Flush_dropped ->
    log_fault t ~structure:Structure.Hpm_counters "HPC reset dropped";
    advance t 1
  | Flush_partial ->
    (* Only the first half of the event counters resets. *)
    log_fault t ~structure:Structure.Hpm_counters "HPC reset partial";
    List.iter (fun n -> Csr.raw_write t.csr (Csr.Mhpmcounter n) 0L) [ 3; 4; 5; 6 ];
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Hpm_counters ~slot:0 ~value:0;
    advance t 1
  | Flush_normal ->
    Csr.reset_counters t.csr;
    tap t ~kind:Wave.Event.Flush ~structure:Structure.Hpm_counters ~slot:0 ~value:1;
    advance t 1

let evict_line t ~addr =
  match Cache.evict t.l1 ~addr with
  | Some (line, dirty) ->
    tap t ~kind:Wave.Event.Evict ~structure:Structure.L1d_data ~slot:0 ~value:0;
    let base = line_base addr in
    if dirty then writeback_victim t ~addr:base line ~origin:Log.Refill
    else insert_l2 t ~addr:base line
  | None -> ()

let evict_line_l2 t ~addr =
  (* L2 contents are kept coherent with memory by writeback_victim, so
     dropping the line loses nothing. *)
  match Cache.evict t.l2 ~addr with
  | Some _ ->
    tap t ~kind:Wave.Event.Evict ~structure:Structure.L2_data ~slot:0 ~value:0
  | None -> ()

(* {2 Fault injection}

   The deterministic fault injector (lib/inject) perturbs the machine
   through this API.  Every applied fault leaves a [Fault_injected]
   event in the log so that downstream differences in checker verdicts
   stay attributable to a specific perturbation. *)

let set_advance_hook t hook = t.advance_hook <- hook

let set_flush_fault t ~structure behaviour =
  let rest = List.remove_assoc structure t.flush_faults in
  t.flush_faults <-
    (match behaviour with
    | Flush_normal -> rest
    | Flush_dropped | Flush_partial -> (structure, behaviour) :: rest)

let set_pmp_stuck_grant t armed =
  if armed && not t.pmp_stuck_grant then
    log_fault t "PMP checks stuck at grant";
  t.pmp_stuck_grant <- armed

let delay_snapshots t ~count =
  assert (count >= 0);
  t.snapshot_delay <- count

let flip_bit t ~structure ~select ~bit =
  let flipped =
    match (structure : Structure.t) with
    | Structure.Reg_file ->
      Option.map (fun (slot, v) -> (slot, None, v)) (Regfile.corrupt_bit t.regfile ~select ~bit)
    | Structure.L1d_data ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Cache.corrupt_bit t.l1 ~select ~bit)
    | Structure.L1i_data ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Cache.corrupt_bit t.l1i ~select ~bit)
    | Structure.L2_data ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Cache.corrupt_bit t.l2 ~select ~bit)
    | Structure.Lfb ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Lfb.corrupt_bit t.lfb ~select ~bit)
    | Structure.Wb_buffer ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Lfb.corrupt_bit t.wb_buffer ~select ~bit)
    | Structure.Store_buffer ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Store_buffer.corrupt_bit t.stb ~select ~bit)
    | Structure.Dtlb ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Tlb.corrupt_bit t.dtlb ~select ~bit)
    | Structure.Ptw_cache ->
      Option.map (fun (a, v) -> (0, Some a, v)) (Tlb.corrupt_bit t.ptw_cache ~select ~bit)
    | Structure.Hpm_counters ->
      let n = List.nth [ 3; 4; 5; 6; 7; 8; 9; 10 ] (select mod 8) in
      let v =
        Int64.logxor (Csr.raw_read t.csr (Csr.Mhpmcounter n))
          (Int64.shift_left 1L (bit mod 64))
      in
      Csr.raw_write t.csr (Csr.Mhpmcounter n) v;
      Some (n, None, v)
    | Structure.Ubtb | Structure.Ftb | Structure.Prefetcher | Structure.Store_queue
    | Structure.Load_queue ->
      (* No data payload worth flipping in this model. *)
      None
  in
  match flipped with
  | None -> false
  | Some (slot, addr, value) ->
    log_fault t ~structure (Printf.sprintf "bit-flip select=%d bit=%d" select bit);
    begin_write t ~structure ~origin:Log.Fault_inject;
    (match addr with
    | Some addr -> Log.add_addr_entry t.log ~slot ~addr ~note:"injected bit-flip" value
    | None -> Log.add_entry t.log ~slot ~note:"injected bit-flip" value);
    true

(* {2 Context switching} *)

let snapshot_all t =
  if t.snapshot_delay > 0 then begin
    (* Delayed-snapshot fault: the instrumentation misses this context
       switch entirely. *)
    t.snapshot_delay <- t.snapshot_delay - 1;
    log_fault t "context-switch snapshot delayed"
  end
  else begin
  (* Each structure appends its entries straight into the open record. *)
  let snap structure entries =
    Log.begin_snapshot t.log ~cycle:t.cycle ~ctx:t.ctx ~structure;
    entries t.log
  in
  snap Structure.Reg_file (Regfile.snapshot t.regfile);
  snap Structure.L1i_data (Cache.snapshot t.l1i);
  snap Structure.L1d_data (Cache.snapshot t.l1);
  snap Structure.L2_data (Cache.snapshot t.l2);
  snap Structure.Lfb (Lfb.snapshot t.lfb);
  snap Structure.Store_buffer (Store_buffer.snapshot t.stb);
  snap Structure.Dtlb (Tlb.snapshot t.dtlb);
  snap Structure.Ptw_cache (Tlb.snapshot t.ptw_cache);
  snap Structure.Ubtb (Btb.snapshot t.ubtb);
  snap Structure.Ftb (Btb.snapshot t.ftb);
  snap Structure.Hpm_counters (Hpc.snapshot t.csr);
  snap Structure.Wb_buffer (Lfb.snapshot t.wb_buffer);
  snap Structure.Prefetcher (fun log ->
      Option.iter
        (fun addr -> Log.add_addr_entry log ~slot:0 ~addr ~note:"" addr)
        t.last_prefetch)
  end

let apply_mitigation_flushes t =
  let active m = Config.mitigated t.config m in
  if active Mitigation.Flush_store_buffer then flush_store_buffer t;
  if active Mitigation.Flush_l1d then begin
    flush_l1d t;
    flush_l1i t
  end;
  if active Mitigation.Flush_lfb then flush_lfb t;
  if active Mitigation.Flush_bpu_hpc then begin
    flush_bpu t;
    reset_hpcs t
  end

(* Tag_bpu_hpc banks the event counters per security domain: each
   context sees only the events it caused itself. *)
let banked_counters = [ 3; 4; 5; 6; 7; 8; 9; 10 ]

let swap_hpc_banks t ~from_ctx ~to_ctx =
  let key ctx = Exec_context.to_string ctx in
  let current = Array.of_list (List.map (fun n -> Csr.raw_read t.csr (Csr.Mhpmcounter n)) banked_counters) in
  Hashtbl.replace t.hpc_banks (key from_ctx) current;
  let incoming =
    Option.value
      (Hashtbl.find_opt t.hpc_banks (key to_ctx))
      ~default:(Array.make (List.length banked_counters) 0L)
  in
  List.iteri (fun i n -> Csr.raw_write t.csr (Csr.Mhpmcounter n) incoming.(i)) banked_counters

let switch_context t ~to_ctx =
  let from_ctx = t.ctx in
  apply_mitigation_flushes t;
  if Config.mitigated t.config Mitigation.Tag_bpu_hpc then
    swap_hpc_banks t ~from_ctx ~to_ctx;
  advance t 4;
  t.ctx <- to_ctx;
  record t (Log.Mode_switch { from_ctx; to_ctx });
  snapshot_all t

(* {2 Instruction interpretation} *)

type stop_reason = Halted | Out_of_program | Step_limit | Fetch_fault

let stop_reason_to_string = function
  | Halted -> "halted"
  | Out_of_program -> "out-of-program"
  | Step_limit -> "step-limit"
  | Fetch_fault -> "fetch-fault"

let set_ecall_handler t f = t.ecall_handler <- f
let set_pending_interrupt t f = t.pending_interrupt <- Some f

let step_limit = 200_000

(* Instruction fetch through the I-cache.  Returns false on a PMP
   execute fault (fetches are checked before the access: the front end
   cannot run ahead of the fault in this model). *)
let icache_fetch t ~pc =
  if not (pmp_allows t ~priv:(priv t) ~kind:Pmp.Execute ~addr:pc ~size:4) then begin
    log_exception t ~cause:Load_access_fault ~pc;
    false
  end
  else begin
    (if not (Cache.contains t.l1i ~addr:pc) then begin
       let line, lat = fetch_line t ~paddr:pc in
       (match Cache.insert t.l1i ~addr:pc line with _ -> ());
       begin_write t ~structure:Structure.L1i_data ~origin:Log.Refill;
       Log.add_line t.log ~slot:0 ~addr:(line_base pc) line;
       advance t lat
     end);
    true
  end

let in_fetch_image t ~pc =
  match t.fetch_image with
  | None -> false
  | Some (base, len) ->
    Int64.unsigned_compare pc base >= 0
    && Int64.unsigned_compare pc (Int64.add base (Int64.of_int len)) < 0

(* The reference ALU/branch semantics live in {!Instr} so the symbolic
   evaluator (lib/symex) folds exactly what the machine executes. *)
let eval_alu = Instr.eval_alu
let eval_cond = Instr.eval_cond

(* Branch execution: consult the uBTB prediction, pay the misprediction
   penalty, and update both predictors with the outcome.  Entries record
   the executing context so the checker can spot enclave residue (M2). *)
let execute_branch t ~pc ~taken ~target =
  Hpc.bump t.csr Hpc.Branch;
  let predicted_taken =
    (* With owner tagging, entries installed by another domain do not
       steer this domain's prediction. *)
    match Btb.predict t.ubtb ~pc ~ctx:t.ctx with
    | Some entry -> entry.Btb.taken
    | None -> false
  in
  if predicted_taken <> taken then begin
    Hpc.bump t.csr Hpc.Branch_mispredict;
    advance t (latencies t).Config.mispredict_penalty
  end;
  let update btb structure =
    let set_index, entry = Btb.update btb ~pc ~target ~taken ~owner:t.ctx in
    if wave_enabled t then
      tap t ~kind:Wave.Event.Fill ~structure ~slot:set_index
        ~value:(1 + Btb.occupancy btb);
    begin_write t ~structure ~origin:Log.Branch_exec;
    Log.add_entry t.log ~slot:set_index ~note:entry.Btb.note target
  in
  update t.ubtb Structure.Ubtb;
  update t.ftb Structure.Ftb

(* Lazily-checked CSR read that faults: the raw value is transiently
   written back; if an external interrupt is pending it fires inside the
   window, and the service routine's context save spills the transient
   architectural state (M1, Figure 6). *)
let lazy_csr_fault t ~rd ~pc ~value =
  writeback t ~value ~origin:Log.Csr_read ~transient:true ~note:"lazy-priv-check";
  (match t.pending_interrupt with
  | Some service_routine ->
    let saved = get_reg t rd in
    set_reg t rd value;
    t.pending_interrupt <- None;
    service_routine t;
    set_reg t rd saved
  | None -> ());
  log_exception t ~cause:Illegal_instruction ~pc

let run t prog =
  let pc = ref (Program.base prog) in
  let steps = ref 0 in
  let result = ref None in
  while Option.is_none !result do
    incr steps;
    if !steps > step_limit then result := Some Step_limit
    else
      match Program.fetch prog ~pc:!pc with
      | None -> result := Some Out_of_program
      | Some instr when in_fetch_image t ~pc:!pc && not (icache_fetch t ~pc:!pc) ->
        ignore instr;
        result := Some Fetch_fault
      | Some instr -> (
        advance t 1;
        Csr.bump_counter t.csr 2 ~by:1;
        let next = Int64.add !pc 4L in
        let commit () =
          record t (Log.Commit { pc = !pc; instr = Instr.to_string instr })
        in
        match instr with
        | Instr.Halt -> result := Some Halted
        | Instr.Nop ->
          commit ();
          pc := next
        | Instr.Li (rd, v) ->
          set_reg t rd v;
          writeback t ~value:v ~origin:Log.Writeback ~transient:false ~note:"li";
          commit ();
          pc := next
        | Instr.Alu (op, rd, rs1, rs2) ->
          let v = eval_alu op (get_reg t rs1) (get_reg t rs2) in
          set_reg t rd v;
          writeback t ~value:v ~origin:Log.Writeback ~transient:false ~note:"alu";
          commit ();
          pc := next
        | Instr.Alui (op, rd, rs1, imm) ->
          let v = eval_alu op (get_reg t rs1) imm in
          set_reg t rd v;
          writeback t ~value:v ~origin:Log.Writeback ~transient:false ~note:"alu";
          commit ();
          pc := next
        | Instr.Load { width; rd; base; offset } -> (
          let vaddr = Int64.add (get_reg t base) offset in
          let r = load t ~vaddr ~size:(Instr.width_bytes width) () in
          match r.fault with
          | None ->
            set_reg t rd r.value;
            writeback t ~value:r.value ~origin:Log.Explicit_load ~transient:false
              ~note:"load";
            commit ();
            pc := next
          | Some trap ->
            log_exception t ~cause:trap.cause ~pc:!pc;
            pc := next)
        | Instr.Store { width; rs; base; offset } -> (
          let vaddr = Int64.add (get_reg t base) offset in
          let fault =
            store t ~vaddr ~size:(Instr.width_bytes width) ~value:(get_reg t rs) ()
          in
          match fault with
          | None ->
            commit ();
            pc := next
          | Some trap ->
            log_exception t ~cause:trap.cause ~pc:!pc;
            pc := next)
        | Instr.Branch (c, rs1, rs2, label) ->
          let taken = eval_cond c (get_reg t rs1) (get_reg t rs2) in
          let target = Program.resolve prog label in
          execute_branch t ~pc:!pc ~taken ~target;
          commit ();
          pc := (if taken then target else next)
        | Instr.Jal label ->
          commit ();
          pc := Program.resolve prog label
        | Instr.Csrr (rd, id) ->
          (if t.config.Config.lazy_csr_priv_check then begin
             let raw = Csr.raw_read t.csr id in
             match Csr.read t.csr ~priv:(priv t) id with
             | Csr.Ok v ->
               set_reg t rd v;
               writeback t ~value:v ~origin:Log.Csr_read ~transient:false ~note:("csrr " ^ Csr.name id);
               commit ()
             | Csr.Illegal_instruction -> lazy_csr_fault t ~rd ~pc:!pc ~value:raw
           end
           else
             match Csr.read t.csr ~priv:(priv t) id with
             | Csr.Ok v ->
               set_reg t rd v;
               writeback t ~value:v ~origin:Log.Csr_read ~transient:false ~note:("csrr " ^ Csr.name id);
               commit ()
             | Csr.Illegal_instruction ->
               log_exception t ~cause:Illegal_instruction ~pc:!pc);
          pc := next
        | Instr.Csrw (id, rs) ->
          (match Csr.write t.csr ~priv:(priv t) id (get_reg t rs) with
          | Ok () -> commit ()
          | Error () -> log_exception t ~cause:Illegal_instruction ~pc:!pc);
          pc := next
        | Instr.Ecall ->
          commit ();
          t.ecall_handler t;
          pc := next
        | Instr.Fence ->
          fence t;
          commit ();
          pc := next)
  done;
  Option.get !result

(* {2 Binary execution}

   The paper's artifact feeds compiled RISC-V payloads to the simulator;
   this is the equivalent path: a machine-code image is placed in
   physical memory and executed by fetching through the instruction
   cache (with PMP execute checks), decoding each word back to the
   symbolic instruction set. *)

let load_image t ~base words =
  Array.iteri
    (fun i w ->
      Memory.write t.mem
        ~addr:(Int64.add base (Int64.of_int (i * 4)))
        ~size:4
        (Int64.logand (Int64.of_int32 w) 0xFFFF_FFFFL))
    words

let run_binary t ~base words =
  load_image t ~base words;
  match Riscv.Decode.to_program ~base words with
  | Error msg -> Error msg
  | Ok prog ->
    let saved = t.fetch_image in
    t.fetch_image <- Some (base, 4 * Array.length words);
    let stop = run t prog in
    t.fetch_image <- saved;
    Ok stop
