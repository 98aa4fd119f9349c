type t = User | Supervisor | Machine

let to_int = function User -> 0 | Supervisor -> 1 | Machine -> 3

let of_int = function
  | 0 -> Some User
  | 1 -> Some Supervisor
  | 3 -> Some Machine
  | _ -> None

let geq a b = to_int a >= to_int b
let equal a b = to_int a = to_int b
