(** Minimal JSON representation, printer and parser.

    The campaign runner ([rtnet.campaign]) persists machine-readable
    results — [BENCH_*.json] reports, checkpoint journals, sweep
    specifications — and the perf-regression gate diffs two such files.
    That requires a {e deterministic} serialization: printing the same
    value always yields the same bytes (insertion-order object keys,
    canonical float representation), so byte-equality of two reports is
    meaningful.  The repository deliberately has no third-party JSON
    dependency; this module is the small subset we need.

    Numbers are split into {!Int} and {!Float} at parse time (a token
    with a fraction or exponent is a float); floats are printed with
    the shortest representation that round-trips, so
    [parse (to_string v)] reproduces [v] exactly.  Non-finite floats
    are rejected by the printer — they have no JSON representation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order is preserved *)

(** {2 Writing}

    The byte contract, shared by {!to_string}, {!to_buffer}, {!pp} and
    {!to_file}: an {!Int} is written as [string_of_int] writes it
    ([min_int] included); a {!Float} as [Printf.sprintf "%.12g"] when
    that parses back to the same float, else as ["%.17g"], with [".0"]
    appended when neither holds a ['.'] nor an exponent; a string
    escapes ['"'], ['\\'] and every byte below [0x20] ([\n], [\r],
    [\t], [\b], [\f], else [\u00XX] in lowercase hex) and copies
    every other byte.  The writer gets these bytes without [Printf] or
    a closure per element; a tier-1 QCheck property compares its output
    on random trees with a reference writer built from those library
    calls, and the committed goldens, journals and repro artifacts pin
    them too. *)

val to_string : t -> string
(** [to_string v] is the compact (single-line) canonical rendering.
    @raise Invalid_argument on NaN or infinite floats. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends {!to_string}[ v] to [buf]. *)

val list_to_buffer : Buffer.t -> ('a -> t) -> 'a list -> unit
(** [list_to_buffer buf f xs] appends {!to_string}[ (List (List.map f
    xs))] to [buf], rendering one element at a time, so no element's
    tree outlives its own rendering. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt v] pretty-prints [v] with two-space indentation — the
    format of the committed [BENCH_*.json] files.  Same determinism
    guarantee as {!to_string}. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [pp v] plus a trailing newline to [path]
    (truncating). *)

val parse : string -> (t, string) result
(** [parse s] parses one JSON value (surrounding whitespace allowed);
    trailing garbage is an error. *)

val parse_file : string -> (t, string) result
(** [parse_file path] is {!parse} on the file's contents; I/O failures
    are returned as [Error]. *)

val member : string -> t -> t option
(** [member key v] is the value bound to [key] if [v] is an object
    containing it. *)

(** Checked accessors, for decoders.  Each returns [Error] with a
    one-line description naming the expected shape. *)

val get_int : t -> (int, string) result
val get_float : t -> (float, string) result
(** [get_float] accepts {!Int} too (JSON does not distinguish). *)

val get_bool : t -> (bool, string) result
val get_string : t -> (string, string) result
val get_list : t -> (t list, string) result
val get_obj : t -> ((string * t) list, string) result

val field : string -> t -> (t, string) result
(** [field key v] is {!member} as a [result], naming the missing key. *)
