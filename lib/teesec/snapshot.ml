open! Import

(* The fork point of the execution engine: gadget chains within one
   campaign share long setup prefixes (create enclave, measure, fill
   memory, ...), so instead of replaying the prefix for every test case
   we capture the environment once per distinct prefix and deep-restore
   it into a fresh [Env.t] per case.

   A prefix is identified by a {e cut key}: the config digest, the names
   of the gadgets up to the cut, and the projection of the test-case
   parameters onto the union of those gadgets' declared [param_deps].
   The projection is what makes sharing work at all — the fuzzer gives
   every case a distinct seed, so a key that blindly folded the whole
   parameter record would never repeat; folding only the components the
   prefix actually reads lets every case whose prefix is
   seed-independent share one snapshot.

   Caches are per-domain, so slots are never shared across threads and
   restores race with nothing; only the statistics counters and the
   list of caches are atomic.  The caches hang off the engine, not off
   domain-local storage: OCaml never frees a DLS slot, so a cache held
   there would outlive its engine, pooled machine and up to [slots]
   snapshots included. *)

type slot = {
  s_key : int64;
  s_depth : int;  (** Number of prefix gadgets the snapshot covers. *)
  s_snap : Env.snapshot;
  mutable s_stamp : int;  (** LRU clock reading at last use. *)
}

type cache = {
  slots : (int64, slot) Hashtbl.t;  (** By cut key. *)
  mutable clock : int;
  mutable pool : (Env.t * Env.snapshot) option;
      (* The domain's recycled base environment and its pristine capture.
         [Machine.create] costs as much as replaying a short prefix, so
         instead of building a fresh machine per case we reuse the triple
         (machine, monitor, tracker) and reset it — from a cache slot on
         a hit, from the pristine capture otherwise. *)
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  replayed_gadgets : int;
  restored_gadgets : int;
}

type instruments = {
  i_hits : Obs.Metrics.counter;
  i_misses : Obs.Metrics.counter;
  i_stores : Obs.Metrics.counter;
  i_restore : Obs.Metrics.histogram;
}

type t = {
  config : Config.t;
  config_hash : int64;
  wave : bool;
  capacity : int;
  caches : (int * cache) list Atomic.t;  (** Per-domain caches, by domain id. *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  replayed : int Atomic.t;
  restored : int Atomic.t;
  obs : Obs.t;
  ins : instruments option;
}

let instruments obs =
  match Obs.metrics obs with
  | None -> None
  | Some m ->
    Some
      {
        i_hits =
          Obs.Metrics.counter m
            ~help:"Test cases whose setup prefix was restored from a snapshot."
            "teesec_snapshot_hits_total";
        i_misses =
          Obs.Metrics.counter m
            ~help:"Test cases whose setup prefix was fully replayed."
            "teesec_snapshot_misses_total";
        i_stores =
          Obs.Metrics.counter m ~help:"Snapshots captured into the cache."
            "teesec_snapshot_stores_total";
        i_restore =
          Obs.Metrics.histogram m
            ~help:"Wall time of one snapshot restore into a fresh environment."
            "teesec_snapshot_restore_seconds";
      }

let create ?(slots = 1024) ?(obs = Obs.noop) ?(wave = false) config =
  if slots < 1 then invalid_arg "Snapshot.create: slots must be >= 1";
  {
    config;
    config_hash = Config.hash config;
    wave;
    capacity = slots;
    caches = Atomic.make [];
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    replayed = Atomic.make 0;
    restored = Atomic.make 0;
    obs;
    ins = instruments obs;
  }

let config_hash t = t.config_hash

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    replayed_gadgets = Atomic.get t.replayed;
    restored_gadgets = Atomic.get t.restored;
  }

(* {2 Cut keys} *)

let dep_tag = function
  | Gadget.Dep_offset -> 0x0FF5E7L
  | Gadget.Dep_width -> 0x31D7L
  | Gadget.Dep_variant -> 0x7A41A47L
  | Gadget.Dep_seed -> 0x5EEDL

let dep_value (params : Params.t) = function
  | Gadget.Dep_offset -> Int64.of_int params.Params.offset
  | Gadget.Dep_width -> Int64.of_int params.Params.width
  | Gadget.Dep_variant -> Int64.of_int params.Params.variant
  | Gadget.Dep_seed -> params.Params.seed

let all_deps =
  [ Gadget.Dep_offset; Gadget.Dep_width; Gadget.Dep_variant; Gadget.Dep_seed ]

(* One key per cut point: [keys.(i)] identifies the prefix [g0..gi].
   The running hash folds gadget names; the parameter projection is
   folded in dependency-declaration order at each cut, over the union of
   dependencies accumulated so far. *)
let cut_keys t (prefix : Gadget.t list) (params : Params.t) =
  let h = ref (Strutil.hash_fold t.config_hash 0x534e4150L) in
  let have = ref [] in
  List.map
    (fun (g : Gadget.t) ->
      h := Strutil.hash_string !h g.Gadget.name;
      List.iter
        (fun d -> if not (List.mem d !have) then have := d :: !have)
        g.Gadget.param_deps;
      List.fold_left
        (fun acc d ->
          if List.mem d !have then
            Strutil.hash_fold (Strutil.hash_fold acc (dep_tag d))
              (dep_value params d)
          else acc)
        !h all_deps)
    prefix
  |> Array.of_list

(* {2 The cache} *)

let rec update_caches t f =
  let l = Atomic.get t.caches in
  if not (Atomic.compare_and_set t.caches l (f l)) then update_caches t f

(* The calling domain's cache, created on first use.  A worker domain
   drops its cache from the engine when it exits; the main domain's
   lives as long as the engine. *)
let domain_cache t =
  let self = (Domain.self () :> int) in
  match List.assoc_opt self (Atomic.get t.caches) with
  | Some cache -> cache
  | None ->
    let cache = { slots = Hashtbl.create 64; clock = 0; pool = None } in
    update_caches t (fun l -> (self, cache) :: l);
    if not (Domain.is_main_domain ()) then
      Domain.at_exit (fun () -> update_caches t (List.remove_assoc self));
    cache

let find_slot cache key = Hashtbl.find_opt cache.slots key

let touch cache slot =
  cache.clock <- cache.clock + 1;
  slot.s_stamp <- cache.clock

(* Capture on first sighting: since captures hold only the live state
   and share what their prefix did not change (a full grid campaign's
   engine holds about 23 KB per slot on BOOM and 25 KB on XiangShan,
   against 35 and 55 KB when every capture copied its log prefix and
   replacement pointers), storing is cheaper than replaying even the
   shortest gadget, so there is no admission filter — one-off prefixes
   just age out of the LRU. *)
let store t cache key ~depth env =
  match find_slot cache key with
  | Some slot -> touch cache slot
  | None ->
    cache.clock <- cache.clock + 1;
    let slot =
      { s_key = key; s_depth = depth; s_snap = Env.snapshot env;
        s_stamp = cache.clock }
    in
    Hashtbl.replace cache.slots key slot;
    if Hashtbl.length cache.slots > t.capacity then begin
      (* Stamps are distinct, so the least recently used slot is unique. *)
      let victim =
        Hashtbl.fold
          (fun _ s v -> if s.s_stamp < v.s_stamp then s else v)
          cache.slots slot
      in
      Hashtbl.remove cache.slots victim.s_key
    end;
    Atomic.incr t.stores;
    Option.iter (fun i -> Obs.Metrics.inc i.i_stores) t.ins

(* {2 Establishing an environment} *)

let establish t (tc : Testcase.t) =
  let prefix, _access = Testcase.split tc in
  let keys = cut_keys t prefix tc.Testcase.params in
  let cache = domain_cache t in
  (* Recycle the pooled environment: every pipeline fully consumes a
     case's outcome (log, tracker) before establishing the next one on
     the same domain, so the record copy only swaps the per-case
     parameters while the expensive structures are reset in place. *)
  let env, pristine =
    match cache.pool with
    | Some (base, pristine) ->
      ({ base with Env.params = tc.Testcase.params }, Some pristine)
    | None ->
      let env = Env.create ~wave:t.wave t.config tc.Testcase.params in
      cache.pool <- Some (env, Env.snapshot env);
      (env, None)
  in
  let start = ref 0 in
  (try
     for i = Array.length keys - 1 downto 0 do
       match find_slot cache keys.(i) with
       | Some slot ->
         let (), _ =
           Obs.timed t.obs
             ?histogram:(Option.map (fun i -> i.i_restore) t.ins)
             "snapshot/restore"
             (fun () -> Env.restore env slot.s_snap)
         in
         touch cache slot;
         start := slot.s_depth;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  (* No usable snapshot: reset the recycled environment to its pristine
     state before replaying the whole prefix (a freshly created one is
     already pristine). *)
  if !start = 0 then Option.iter (fun p -> Env.restore env p) pristine;
  if !start > 0 then begin
    Atomic.incr t.hits;
    ignore (Atomic.fetch_and_add t.restored !start);
    Option.iter (fun i -> Obs.Metrics.inc i.i_hits) t.ins
  end
  else if Array.length keys > 0 then begin
    Atomic.incr t.misses;
    Option.iter (fun i -> Obs.Metrics.inc i.i_misses) t.ins
  end;
  List.iteri
    (fun i (g : Gadget.t) ->
      if i >= !start then begin
        g.Gadget.emit env;
        Atomic.incr t.replayed;
        store t cache keys.(i) ~depth:(i + 1) env
      end)
    prefix;
  env
