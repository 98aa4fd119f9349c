(** JSON values: the one printer every JSON artifact of the tool goes
    through (reports, provenance chains, traces, metrics, log lines,
    bench records) and a minimal hand-rolled reader for reading them
    back, without adding a JSON dependency.

    {b Printer.}  Producers build a {!t} and render it; no other code
    escapes JSON.  Objects keep their fields in the order given, and
    rendering is a pure function of the value, so equal values render
    to equal bytes.
    - {!to_line} is the one-line form: [", "] between entries and
      [": "] after keys, nothing else (log lines, provenance chains).
    - {!to_document} is the file form, ending in a newline: the
      top-level container and its direct container children put one
      entry per line (indented two spaces per level), deeper values stay
      in one-line form.  Empty containers render as [[]] and [{}].
    - Strings escape the double quote, the backslash and newline (as
      [\n]); other bytes below 0x20 become [\u00XX]; every other byte is
      written raw.
    - Numbers: an integral value below 2{^62} in magnitude prints as
      integer digits; any other finite value as the shorter of [%.15g]
      and [%.17g] that reads back to the same float; NaN and the
      infinities print as [null].

    {b Reader.}  Tests, the [trace-check] subcommand and the bench
    comparator read documents back structurally instead of by grep. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [parse src] parses one complete JSON value; trailing non-whitespace
    bytes are an error. *)
val parse : string -> (t, string) result

(** Like {!parse} but raises {!Parse_error}. *)
val parse_exn : string -> t

(** [member key v] is the field [key] of an object, [None] on a missing
    key or a non-object. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option
val to_bool : t -> bool option

(** [number_field key v] = [Option.bind (member key v) to_number]. *)
val number_field : string -> t -> float option

val string_field : string -> t -> string option

(** {2 Printer} *)

(** The one-line rendering (no trailing newline). *)
val to_line : t -> string

(** The document rendering, ending in a newline. *)
val to_document : t -> string

(** {2 Builders} *)

(** [int n] is [Num (float_of_int n)], exact for [|n| <= 2{^53}]. *)
val int : int -> t

(** [list f l] is [Arr (List.map f l)]. *)
val list : ('a -> t) -> 'a list -> t

(** [option f o] is [f x] for [Some x] and [Null] for [None]. *)
val option : ('a -> t) -> 'a option -> t
