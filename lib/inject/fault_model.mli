open! Import

(** The fault-model vocabulary.

    Each value names one way the modelled hardware (or its
    instrumentation) can misbehave.  The vocabulary deliberately targets
    the machinery the checker's verdicts depend on: corrupted structure
    contents, security flushes that do not fully happen, a permission
    check stuck at "grant", context-switch snapshots the instrumentation
    misses, and corrupted event counters. *)

type t =
  | Bit_flip of Structure.t
      (** Flip one bit in one occupied entry of the structure. *)
  | Flush_drop of Structure.t
      (** The structure's flush primitive becomes a no-op while the
          fault window is open. *)
  | Flush_partial of Structure.t
      (** The flush only clears part of the structure while the window
          is open. *)
  | Pmp_stuck_grant
      (** Every data-path PMP check reports "allowed" while the window
          is open. *)
  | Snapshot_delay
      (** The next context-switch snapshots record nothing — the
          instrumentation misses the boundary. *)
  | Hpc_corrupt  (** Flip one bit of one hardware performance counter. *)

(** Structures a [Bit_flip] may target (those carrying a data payload in
    the model). *)
val bit_flip_targets : Structure.t list

(** Every instantiable fault model — the sampler's alphabet. *)
val vocabulary : t list

(** [structure_of t] is the structure the fault perturbs, [None] for
    machine-global faults. *)
val structure_of : t -> Structure.t option

(** [windowed t] is true for faults that stay armed over a cycle window
    (and are disarmed when it closes) rather than firing once. *)
val windowed : t -> bool

(** [deferred t] is true for faults that can make the run differ from
    the clean run before they log a [Fault_injected] record: a snapshot
    delay only sets a counter, and logs at the next context switch.
    Every other model logs through [Machine]'s fault emitter by the
    time it first makes the run differ — the injector's early stop
    ({!Injector.arm}'s [stop_when_inert]) is exact only under this
    invariant. *)
val deferred : t -> bool

val to_string : t -> string

(** [of_string s] inverts [to_string]. *)
val of_string : string -> t option

val equal : t -> t -> bool
