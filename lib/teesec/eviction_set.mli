open! Import

(** Eviction-set construction.

    The classic machinery behind Prime+Probe (paper §2.2): given the
    cache geometry, compute attacker-accessible addresses that map to
    the same set as a target address.  Priming the set with [ways] such
    lines guarantees the target is evicted; probing them afterwards and
    timing each access reveals whether the victim touched the set in
    between.

    TEESec's helper gadgets use targeted eviction for state setup; this
    module exposes the same computation for side-channel demonstrations
    (see [examples/cache_prime_probe.ml]). *)

(** [same_set config ~addr1 ~addr2] — do the two addresses conflict in
    the L1D? *)
val same_set : Config.t -> addr1:Word.t -> addr2:Word.t -> bool

(** [build config ~target ~from ~count] returns [count] line-aligned
    addresses at or above [from] that map to [target]'s L1D set (and are
    distinct from [target]'s line). *)
val build : Config.t -> target:Word.t -> from:Word.t -> count:int -> Word.t list

(** [prime_instrs addrs] / [probe_instrs addrs] are host instruction
    sequences that touch every address of the set; the probe brackets
    each access with cycle-counter reads and accumulates the total
    latency in [a6]. *)
val prime_instrs : Word.t list -> Instr.t list

val probe_instrs : Word.t list -> Instr.t list
