open Import

(** Hardware performance counter events.

    Both cores expose event counters through the [mhpmcounter] CSRs; this
    module maps microarchitectural events to counter indices and bumps
    them in the CSR file.  Neither core resets the counters on a context
    switch and Keystone provides no software mechanism to clear them —
    the root cause of leakage case M1: the host primes the counters,
    runs the enclave, and reads the deltas to infer enclave control flow
    and memory behaviour. *)

type event =
  | L1d_access
  | L1d_miss
  | Dtlb_miss
  | Branch
  | Branch_mispredict
  | Store_to_load_forward
  | Exception_event
  | Ptw_walk_event

val all_events : event list
val to_string : event -> string

(** [counter_index e] is the [mhpmcounter] index tracking [e]
    (3 upward). *)
val counter_index : event -> int

(** [bump csr e] increments the counter for [e]. *)
val bump : Csr.t -> event -> unit

(** [read csr e] is the current count of [e]. *)
val read : Csr.t -> event -> int64

(** [snapshot csr log] appends all modelled counters (including cycle
    and instret) to the log's open record, slot = counter index.  Once
    the log has room it allocates nothing. *)
val snapshot : Csr.t -> Log.t -> unit
