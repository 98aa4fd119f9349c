(** Core configurations.

    The two evaluated processors share the structural model but differ in
    the behavioural properties the paper's §7 case studies document.
    Every one of the 10 leakage findings traces back to one of the
    boolean knobs below, so the per-core values encode the paper's
    root-cause analysis:

    - BOOM has an L1 next-line prefetcher that performs no permission
      check (D1); its page-table walker issues refills over the ordinary
      L1D channel without a PMP pre-check (D2); its line-fill buffer
      retains stale data after the fill completes (D3); and a faulting
      load that misses in the L1D still fills the LFB from L2 (D4–D7
      miss case).  Its CSR privilege check is performed early, so the M1
      interrupt trick does not apply.
    - XiangShan has no L1 prefetcher; its PTW checks PMP {e before}
      issuing a refill request; a faulting load that misses gets a "fake
      hit" response with zero data; but its committed-store buffer
      forwards data to faulting loads (D8) and its CSR privilege check is
      lazy, transiently writing the CSR value back (M1). *)

type core_kind = Boom | Xiangshan

val core_kind_to_string : core_kind -> string

type latencies = {
  l1_hit : int;  (** Cycles from request to L1D hit response. *)
  l1_miss : int;  (** Cycles to the miss (fake-hit) response, Fig. 5's C30. *)
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
  wb_buffer_entries : int;  (** Write-back buffer ring between L1D and L2. *)
  store_buffer_entries : int;
  dtlb_entries : int;
  ptw_cache_entries : int;
  ubtb_entries : int;  (** Direct-mapped. *)
  ubtb_tag_bits : int;  (** Partial tag width — the M2 aliasing root cause. *)
  ftb_sets : int;
  ftb_ways : int;
  ftb_tag_bits : int;
  phys_regs : int;
  has_l1_prefetcher : bool  (** D1: next-line prefetcher, no PMP check. *);
  ptw_pmp_precheck : bool  (** D2 defence: PMP check before PTW refill. *);
  faulting_miss_fake_hit : bool
      (** D4–D7 miss-case defence: zero "fake hit" instead of LFB fill. *);
  store_buffer_forwards_faulting : bool  (** D8: transient forward. *);
  lazy_csr_priv_check : bool  (** M1: transient CSR write-back. *);
  lfb_retains_stale : bool  (** D3: completed fills linger in the LFB. *);
  latencies : latencies;
  mitigations : Mitigation.t list;
}

(** SonicBOOM-style configuration (SmallBoomConfig scale), the paper's
    BOOM v3.1. *)
val boom : t

(** The last stable pre-SonicBOOM release the paper also evaluated
    (v2.3): smaller structures, same behavioural properties - and the
    same findings. *)
val boom_v2 : t

(** XiangShan-style configuration (MinimalConfig scale). *)
val xiangshan : t

val of_core_name : string -> t option

(** [hash t] is a deterministic 64-bit digest of every field that shapes
    machine behaviour (structure sizes, behavioural knobs, latencies,
    mitigations).  The snapshot engine keys cached machine states on it
    so a snapshot is never restored into a differently-configured
    machine. *)
val hash : t -> int64

(** [with_mitigations t ms] is [t] with the mitigation set replaced. *)
val with_mitigations : t -> Mitigation.t list -> t

val mitigated : t -> Mitigation.t -> bool
