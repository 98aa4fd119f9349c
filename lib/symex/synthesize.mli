open Import

(** Lower witnesses into fuzz-corpus gadgets.

    Every witness on an accepted path is mapped to the gadget family
    that drives its SBI call (destroy witnesses become
    [Imp_Acc_Destroy_Memset] chains, attest witnesses the
    enclave-memory access chain, and so on) with {!Params} derived
    deterministically from the witness argument vector, then validated
    through {!Assembler.assemble} — so the emitted corpus always loads
    cleanly back through {!Corpus_io} and seeds [fuzz --corpus] on the
    same coverage map. *)

(** [testcases_of report] — deduplicated, id-ordered gadgets for every
    accepted-path witness in [report]. *)
val testcases_of : Explore.t -> Testcase.t list

(** [emit report ~path] writes the corpus via {!Corpus_io.save} and
    returns the number of entries written. *)
val emit : Explore.t -> path:string -> int
