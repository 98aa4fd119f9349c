(** 64-bit machine words and bit-manipulation helpers.

    All architectural and microarchitectural values in the simulator are
    [int64] little-endian words.  This module gathers the masking,
    sign-extension and hashing primitives shared by the whole code base so
    that no other module open-codes bit twiddling. *)

type t = int64

(** [mask bits] is an all-ones mask of the [bits] low bits.
    Requires [0 <= bits <= 64]. *)
val mask : int -> t

(** [extract x ~pos ~len] extracts [len] bits of [x] starting at bit
    [pos] (bit 0 is the least significant). *)
val extract : t -> pos:int -> len:int -> t

(** [sign_extend x ~bits] sign-extends the [bits]-bit value held in the
    low bits of [x] to a full 64-bit word. *)
val sign_extend : t -> bits:int -> t

(** [align_down x ~alignment] rounds [x] down to a multiple of
    [alignment], which must be a power of two. *)
val align_down : t -> alignment:int -> t

(** [is_aligned x ~alignment] is true when [x] is a multiple of
    [alignment], which must be a power of two. *)
val is_aligned : t -> alignment:int -> bool

(** [splitmix64 x] is one round of the SplitMix64 mixing function.  It is
    used both as the deterministic PRNG underlying the fuzzer and as the
    address-to-secret hash that lets the checker trace a leaked value back
    to the enclave address it was seeded at. *)
val splitmix64 : t -> t

(** [pp] formats a word as [0x%016Lx]. *)
val pp : Format.formatter -> t -> unit

(** [to_hex x] is the compact hexadecimal rendering of [x] with a [0x]
    prefix and no leading zeroes. *)
val to_hex : t -> string

(** [byte_of x ~index] is byte [index] (0 = least significant) of [x]. *)
val byte_of : t -> index:int -> int

(** [set_byte x ~index ~byte] replaces byte [index] of [x]. *)
val set_byte : t -> index:int -> byte:int -> t
