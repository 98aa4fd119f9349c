(** RISC-V privilege modes.

    The simulator models the three classic modes.  Machine mode is where
    the Keystone-style security monitor runs; enclaves and the untrusted
    host both run in supervisor/user mode and are distinguished by the PMP
    configuration active at the time (see {!Pmp}). *)

type t = User | Supervisor | Machine

(** Numeric encoding used by the ISA (U=0, S=1, M=3). *)
val to_int : t -> int

val of_int : int -> t option

(** [geq a b] is true when mode [a] is at least as privileged as [b]. *)
val geq : t -> t -> bool

val equal : t -> t -> bool
