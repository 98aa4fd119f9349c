(** Rendering for {!Explore.t}: a human summary and a deterministic JSON
    document (no wall time, no environment), byte-identical across runs,
    job counts and observability settings. *)

val to_text : Explore.t -> string
val to_json_string : Explore.t -> string
val save_json : path:string -> Explore.t -> unit
