open! Import

type call =
  | Create_enclave
  | Run_enclave
  | Stop_enclave
  | Resume_enclave
  | Exit_enclave
  | Destroy_enclave
  | Attest_enclave

let all =
  [
    Create_enclave;
    Run_enclave;
    Stop_enclave;
    Resume_enclave;
    Exit_enclave;
    Destroy_enclave;
    Attest_enclave;
  ]

(* Keystone's SBI_SM_* function identifiers start at 2001. *)
let to_code = function
  | Create_enclave -> 2001L
  | Run_enclave -> 2002L
  | Stop_enclave -> 2003L
  | Resume_enclave -> 2005L
  | Exit_enclave -> 2004L
  | Destroy_enclave -> 2006L
  | Attest_enclave -> 2007L

let of_code = function
  | 2001L -> Some Create_enclave
  | 2002L -> Some Run_enclave
  | 2003L -> Some Stop_enclave
  | 2005L -> Some Resume_enclave
  | 2004L -> Some Exit_enclave
  | 2006L -> Some Destroy_enclave
  | 2007L -> Some Attest_enclave
  | _ -> None

let to_string = function
  | Create_enclave -> "sm_create_enclave"
  | Run_enclave -> "sm_run_enclave"
  | Stop_enclave -> "sm_stop_enclave"
  | Resume_enclave -> "sm_resume_enclave"
  | Exit_enclave -> "sm_exit_enclave"
  | Destroy_enclave -> "sm_destroy_enclave"
  | Attest_enclave -> "sm_attest_enclave"

let error_code = Int64.minus_one
