open! Import

(** Raised out of the armed run (through {!Machine.advance}) by a plan
    armed with [~stop_when_inert:true] once it is spent and left no
    trace; see {!arm}. *)
exception Spent_clean

(** Arms a fault plan on a machine.

    [arm machine plan] installs an advance hook that watches the cycle
    counter and applies each of the plan's faults when its window
    opens: one-shot faults (bit flips, HPC corruption, snapshot delays)
    fire once; windowed faults (flush misbehaviour, stuck permission
    checks) are armed at [window_start] and disarmed [window_len]
    cycles later.  Window positions are relative to the cycle count at
    arming time — the runner arms at the fork point (after the setup
    prefix), so the same plan on the same test case perturbs the run
    identically every time, whether the prefix was replayed or restored
    from a snapshot.

    Once the plan is {e spent} — its last fault has fired and its last
    window has closed — the hook removes itself, so the rest of the run
    pays nothing for it (the machine's destroy memset goes back to its
    line path mid-region).

    With [~stop_when_inert:true] (default false), a spent plan that has
    logged no [Fault_injected] record since arming and fired no
    {!Fault_model.deferred} fault raises {!Spent_clean} instead of
    letting the run continue: every other model logs by the time it
    first makes the run differ from the clean run, so such a run is the
    clean run from here on and its verdict is the clean verdict.  The caller must catch it and
    must not reuse the machine without restoring it. *)
val arm : ?stop_when_inert:bool -> Machine.t -> Fault_plan.t -> unit
