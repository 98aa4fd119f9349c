(** Persistent content-addressed corpus/verdict store.

    Layout under the root directory:

    {v
    <root>/corpus/<digest>     shard test-case slices (text, inspectable)
    <root>/verdicts/<digest>   shard outcomes (Codec binary payloads)
    v}

    Keys are {!digest_of_fields} hex digests over canonical
    (field, value) pairs — config hash, gadget/case set, parameters and
    code version — so a key changes exactly when re-execution could
    change the outcome, and re-submitting an unchanged request hits on
    every shard.  Writes go through a temp file plus [rename], so a
    crashed writer never leaves a half-written object that later reads
    as a verdict; a corrupt or foreign file reads as a miss. *)

type t

(** [open_ ~root] creates the directory layout if needed. *)
val open_ : root:string -> t

type bucket = Corpus | Verdicts

(** [digest_of_fields fields] is a 32-hex-character content digest.
    Fields are sorted by name before hashing, so the digest is stable
    under field reordering; both the field names and values are
    length-prefixed, so no two distinct field lists collide by
    concatenation. *)
val digest_of_fields : (string * string) list -> string

val put : t -> bucket -> digest:string -> string -> unit

(** [get] returns [None] for absent, truncated or corrupt objects. *)
val get : t -> bucket -> digest:string -> string option

val mem : t -> bucket -> digest:string -> bool

(** [evict] removes an object; absent objects are ignored. *)
val evict : t -> bucket -> digest:string -> unit

(** Stored object count of one bucket. *)
val count : t -> bucket -> int
