type core_kind = Boom | Xiangshan

let core_kind_to_string = function Boom -> "BOOM" | Xiangshan -> "XiangShan"

type latencies = {
  l1_hit : int;
  l1_miss : int;
  l2_hit : int;
  memory : int;
  mispredict_penalty : int;
}

type t = {
  kind : core_kind;
  name : string;
  l1_sets : int;
  l1_ways : int;
  l1i_sets : int;
  l1i_ways : int;
  l2_sets : int;
  l2_ways : int;
  lfb_entries : int;
  wb_buffer_entries : int;
  store_buffer_entries : int;
  dtlb_entries : int;
  ptw_cache_entries : int;
  ubtb_entries : int;
  ubtb_tag_bits : int;
  ftb_sets : int;
  ftb_ways : int;
  ftb_tag_bits : int;
  phys_regs : int;
  has_l1_prefetcher : bool;
  ptw_pmp_precheck : bool;
  faulting_miss_fake_hit : bool;
  store_buffer_forwards_faulting : bool;
  lazy_csr_priv_check : bool;
  lfb_retains_stale : bool;
  latencies : latencies;
  mitigations : Mitigation.t list;
}

let boom =
  {
    kind = Boom;
    name = "BOOM (SonicBOOM v3, SmallBoomConfig)";
    l1_sets = 64;
    l1_ways = 4;
    l1i_sets = 64;
    l1i_ways = 4;
    l2_sets = 256;
    l2_ways = 8;
    lfb_entries = 4;
    wb_buffer_entries = 2;
    store_buffer_entries = 8;
    dtlb_entries = 32;
    ptw_cache_entries = 8;
    ubtb_entries = 128;
    ubtb_tag_bits = 14;
    ftb_sets = 128;
    ftb_ways = 4;
    ftb_tag_bits = 14;
    phys_regs = 100;
    has_l1_prefetcher = true;
    ptw_pmp_precheck = false;
    faulting_miss_fake_hit = false;
    store_buffer_forwards_faulting = false;
    lazy_csr_priv_check = false;
    lfb_retains_stale = true;
    latencies =
      { l1_hit = 4; l1_miss = 24; l2_hit = 20; memory = 80; mispredict_penalty = 12 };
    mitigations = [];
  }

(* BOOM v2.3: the pre-SonicBOOM release.  Half-sized frontend and LSU
   structures; all the behavioural properties that cause D1-D3 are
   already present. *)
let boom_v2 =
  {
    boom with
    name = "BOOM v2.3";
    l1_sets = 64;
    l1_ways = 2;
    l1i_sets = 64;
    l1i_ways = 2;
    l2_sets = 128;
    l2_ways = 8;
    lfb_entries = 2;
    wb_buffer_entries = 2;
    store_buffer_entries = 4;
    ubtb_entries = 64;
    ubtb_tag_bits = 13;
    ftb_sets = 64;
    ftb_ways = 2;
    phys_regs = 80;
    latencies =
      { l1_hit = 4; l1_miss = 26; l2_hit = 22; memory = 85; mispredict_penalty = 10 };
  }

let xiangshan =
  {
    kind = Xiangshan;
    name = "XiangShan (MinimalConfig)";
    l1_sets = 128;
    l1_ways = 8;
    l1i_sets = 128;
    l1i_ways = 8;
    l2_sets = 512;
    l2_ways = 8;
    lfb_entries = 8;
    wb_buffer_entries = 4;
    store_buffer_entries = 16;
    dtlb_entries = 32;
    ptw_cache_entries = 16;
    ubtb_entries = 1024;
    ubtb_tag_bits = 16;
    ftb_sets = 1024;
    ftb_ways = 4;
    ftb_tag_bits = 16;
    phys_regs = 128;
    has_l1_prefetcher = false;
    ptw_pmp_precheck = true;
    faulting_miss_fake_hit = true;
    store_buffer_forwards_faulting = true;
    lazy_csr_priv_check = true;
    lfb_retains_stale = false;
    latencies =
      { l1_hit = 3; l1_miss = 30; l2_hit = 18; memory = 90; mispredict_penalty = 14 };
    mitigations = [];
  }

let of_core_name = function
  | "boom" -> Some boom
  | "boom-v2" | "boomv2" -> Some boom_v2
  | "xiangshan" -> Some xiangshan
  | _ -> None

let hash t =
  let fold h v = Riscv.Word.splitmix64 (Int64.logxor h v) in
  let fold_int h v = fold h (Int64.of_int v) in
  let fold_bool h v = fold h (if v then 1L else 0L) in
  let fold_string h s =
    String.fold_left
      (fun acc c -> fold_int acc (Char.code c))
      (fold_int h (String.length s))
      s
  in
  let h = fold_string 0x7ee5ec0de5eedL t.name in
  let h =
    List.fold_left fold_int h
      [
        (match t.kind with Boom -> 1 | Xiangshan -> 2);
        t.l1_sets; t.l1_ways; t.l1i_sets; t.l1i_ways; t.l2_sets; t.l2_ways;
        t.lfb_entries; t.wb_buffer_entries; t.store_buffer_entries;
        t.dtlb_entries; t.ptw_cache_entries; t.ubtb_entries; t.ubtb_tag_bits;
        t.ftb_sets; t.ftb_ways; t.ftb_tag_bits; t.phys_regs;
      ]
  in
  let h =
    List.fold_left fold_bool h
      [
        t.has_l1_prefetcher; t.ptw_pmp_precheck; t.faulting_miss_fake_hit;
        t.store_buffer_forwards_faulting; t.lazy_csr_priv_check;
        t.lfb_retains_stale;
      ]
  in
  let l = t.latencies in
  let h =
    List.fold_left fold_int h
      [ l.l1_hit; l.l1_miss; l.l2_hit; l.memory; l.mispredict_penalty ]
  in
  List.fold_left (fun acc m -> fold_string acc (Mitigation.to_string m)) h
    t.mitigations

let with_mitigations t ms = { t with mitigations = ms }
let mitigated t m = Mitigation.active t.mitigations m
