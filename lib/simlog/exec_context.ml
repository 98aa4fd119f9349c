type t = Host of Riscv.Priv.t | Enclave of int | Monitor

let equal a b =
  match (a, b) with
  | Host p, Host q -> Riscv.Priv.equal p q
  | Enclave i, Enclave j -> i = j
  | Monitor, Monitor -> true
  | (Host _ | Enclave _ | Monitor), _ -> false

(* Every name is a constant or built once: the simulator names the
   context on every store and register write, and a shared string makes
   the log's interning a pointer test. *)
let enclave_names = Array.init 64 (Printf.sprintf "enclave-%d")

let to_string = function
  | Host Riscv.Priv.User -> "host-U"
  | Host Riscv.Priv.Supervisor -> "host-S"
  | Host Riscv.Priv.Machine -> "host-M"
  | Enclave i when i >= 0 && i < Array.length enclave_names -> enclave_names.(i)
  | Enclave i -> Printf.sprintf "enclave-%d" i
  | Monitor -> "monitor"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let of_string s =
  match s with
  | "monitor" -> Some Monitor
  | "host-U" -> Some (Host Riscv.Priv.User)
  | "host-S" -> Some (Host Riscv.Priv.Supervisor)
  | "host-M" -> Some (Host Riscv.Priv.Machine)
  | _ ->
    let prefix = "enclave-" in
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      int_of_string_opt (String.sub s n (String.length s - n))
      |> Option.map (fun i -> Enclave i)
    else None
