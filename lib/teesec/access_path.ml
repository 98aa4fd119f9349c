open! Import

type t =
  | Exp_acc_enc_l1
  | Exp_acc_enc_l2
  | Exp_acc_enc_mem
  | Exp_acc_enc_stb
  | Exp_acc_enc_misaligned
  | Exp_acc_sm
  | Exp_acc_cross_enclave
  | Exp_acc_host_from_enclave
  | Exp_store_enc
  | Imp_acc_pref
  | Imp_acc_ptw_root
  | Imp_acc_ptw_legit
  | Imp_acc_destroy_memset
  | Meta_hpc
  | Meta_btb

let data_paths =
  [
    Exp_acc_enc_l1;
    Exp_acc_enc_l2;
    Exp_acc_enc_mem;
    Exp_acc_enc_stb;
    Exp_acc_enc_misaligned;
    Exp_acc_sm;
    Exp_acc_cross_enclave;
    Exp_acc_host_from_enclave;
    Exp_store_enc;
    Imp_acc_pref;
    Imp_acc_ptw_root;
    Imp_acc_ptw_legit;
    Imp_acc_destroy_memset;
  ]

let metadata_paths = [ Meta_hpc; Meta_btb ]
let all = data_paths @ metadata_paths
let equal (a : t) b = a = b

let to_string = function
  | Exp_acc_enc_l1 -> "Exp_Acc_Enc_L1"
  | Exp_acc_enc_l2 -> "Exp_Acc_Enc_L2"
  | Exp_acc_enc_mem -> "Exp_Acc_Enc_Mem"
  | Exp_acc_enc_stb -> "Exp_Acc_Enc_StB"
  | Exp_acc_enc_misaligned -> "Exp_Acc_Enc_Misaligned"
  | Exp_acc_sm -> "Exp_Acc_SM"
  | Exp_acc_cross_enclave -> "Exp_Acc_Cross_Enclave"
  | Exp_acc_host_from_enclave -> "Exp_Acc_Host_From_Enclave"
  | Exp_store_enc -> "Exp_Store_Enc"
  | Imp_acc_pref -> "Imp_Acc_Pref"
  | Imp_acc_ptw_root -> "Imp_Acc_PTW_Root"
  | Imp_acc_ptw_legit -> "Imp_Acc_PTW_Legit"
  | Imp_acc_destroy_memset -> "Imp_Acc_Destroy_Memset"
  | Meta_hpc -> "Meta_HPC"
  | Meta_btb -> "Meta_BTB"

let description = function
  | Exp_acc_enc_l1 -> "host load of PMP-protected enclave data resident in the L1D"
  | Exp_acc_enc_l2 -> "host load of enclave data resident in the L2 but not the L1D"
  | Exp_acc_enc_mem -> "host load of enclave data resident only in memory"
  | Exp_acc_enc_stb -> "host load of enclave data still pending in the store buffer"
  | Exp_acc_enc_misaligned -> "misaligned host load straddling into enclave data"
  | Exp_acc_sm -> "host load of security-monitor memory"
  | Exp_acc_cross_enclave -> "load from an attacker enclave into a victim enclave"
  | Exp_acc_host_from_enclave -> "enclave load of host user/supervisor memory"
  | Exp_store_enc -> "host store into enclave memory"
  | Imp_acc_pref -> "next-line prefetch triggered at an enclave region boundary"
  | Imp_acc_ptw_root -> "page-table walk with the root pointer hijacked into protected memory"
  | Imp_acc_ptw_legit -> "page-table walk through legitimate host tables"
  | Imp_acc_destroy_memset -> "store-drain refills of the enclave-destroy memset"
  | Meta_hpc -> "hardware performance counter readout across the enclave boundary"
  | Meta_btb -> "uBTB collision between aliasing host and enclave branches"

type perm_policy = Checked_serial | Checked_parallel | Unchecked

let perm_policy_to_string = function
  | Checked_serial -> "checked-serial"
  | Checked_parallel -> "checked-parallel"
  | Unchecked -> "unchecked"

let perm_policy t (core : Config.core_kind) =
  match (t, core) with
  (* Explicit accesses race the PMP check on both cores. *)
  | ( ( Exp_acc_enc_l1 | Exp_acc_enc_l2 | Exp_acc_enc_mem | Exp_acc_enc_stb
      | Exp_acc_enc_misaligned | Exp_acc_sm | Exp_acc_cross_enclave
      | Exp_acc_host_from_enclave | Exp_store_enc ),
      _ ) ->
    Checked_parallel
  (* The hardware prefetcher performs no permission check at all. *)
  | Imp_acc_pref, _ -> Unchecked
  (* XiangShan checks PMP before issuing PTW refills; BOOM checks after
     the access has already gone out. *)
  | (Imp_acc_ptw_root | Imp_acc_ptw_legit), Config.Xiangshan -> Checked_serial
  | (Imp_acc_ptw_root | Imp_acc_ptw_legit), Config.Boom -> Checked_parallel
  (* The destroy memset runs in machine mode: no check applies. *)
  | Imp_acc_destroy_memset, _ -> Unchecked
  (* Counter reads are privilege-checked CSR accesses. *)
  | Meta_hpc, Config.Boom -> Checked_serial
  | Meta_hpc, Config.Xiangshan -> Checked_parallel
  (* BTB lookups carry no permission notion. *)
  | Meta_btb, _ -> Unchecked

let candidate_cases = function
  | Exp_acc_enc_l1 -> [ Case.D4 ]
  | Exp_acc_enc_l2 -> [ Case.D4 ]
  | Exp_acc_enc_mem -> [ Case.D4; Case.D8 ]
  | Exp_acc_enc_stb -> [ Case.D8; Case.D4 ]
  | Exp_acc_enc_misaligned -> [ Case.D4 ]
  | Exp_acc_sm -> [ Case.D5 ]
  | Exp_acc_cross_enclave -> [ Case.D6 ]
  | Exp_acc_host_from_enclave -> [ Case.D7 ]
  | Exp_store_enc -> []
  | Imp_acc_pref -> [ Case.D1 ]
  | Imp_acc_ptw_root -> [ Case.D2 ]
  | Imp_acc_ptw_legit -> []
  | Imp_acc_destroy_memset -> [ Case.D3 ]
  | Meta_hpc -> [ Case.M1 ]
  | Meta_btb -> [ Case.M2 ]

let structures = function
  | Exp_acc_enc_l1 -> [ Structure.L1d_data; Structure.Reg_file ]
  | Exp_acc_enc_l2 -> [ Structure.L2_data; Structure.Lfb; Structure.Reg_file ]
  | Exp_acc_enc_mem -> [ Structure.Lfb; Structure.Reg_file ]
  | Exp_acc_enc_stb -> [ Structure.Store_buffer; Structure.Reg_file ]
  | Exp_acc_enc_misaligned -> [ Structure.L1d_data; Structure.Reg_file ]
  | Exp_acc_sm -> [ Structure.L1d_data; Structure.Reg_file ]
  | Exp_acc_cross_enclave -> [ Structure.L1d_data; Structure.Reg_file ]
  | Exp_acc_host_from_enclave -> [ Structure.L1d_data; Structure.Reg_file ]
  | Exp_store_enc -> [ Structure.Store_buffer ]
  | Imp_acc_pref -> [ Structure.Prefetcher; Structure.Lfb ]
  | Imp_acc_ptw_root -> [ Structure.Dtlb; Structure.Ptw_cache; Structure.Lfb ]
  | Imp_acc_ptw_legit -> [ Structure.Dtlb; Structure.Ptw_cache ]
  | Imp_acc_destroy_memset -> [ Structure.Store_buffer; Structure.Lfb ]
  | Meta_hpc -> [ Structure.Hpm_counters; Structure.Reg_file ]
  | Meta_btb -> [ Structure.Ubtb; Structure.Ftb ]
