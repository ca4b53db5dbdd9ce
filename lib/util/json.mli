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
    trailing garbage is an error, and so is a number too large for a
    finite float ([1e999], or an integer of over 308 digits), which
    {!to_string} could not write back. *)

val load_file : string -> (t -> ('a, string) result) -> ('a, string) result
(** [load_file path decode] reads, parses and decodes the file at
    [path]; each failure is an [Error] ["path: reason"] ({!Io.load}). *)

val parse_file : string -> (t, string) result
(** [parse_file path] is [load_file path Result.ok]. *)

(** {2 Reading}

    Decoders are written with the checked accessors below and four
    combinators, so a decoder states each field once and its shape:

    - {!field_or}[ key ~default decode v] reads an optional field with
      a default: [Ok default] when [key] is absent; a present value,
      [null] included, goes to [decode].
    - {!field_opt}[ key decode v] reads an optional field without a
      default: [Ok None] when [key] is absent {e or} bound to [null].
    - {!list_of}[ decode v] decodes the items of a list, in order.
    - {!obj_of}[ decode v] decodes an object's bindings in key order,
      calling [decode key value] and keeping each key with its value.

    The first [Error] wins: {!list_of} and {!obj_of} stop at the first
    item that fails and return its message unchanged, so a decoder
    reports the same error whichever way it is written.  A decoder
    that must tell absent from [null] picks {!field_or} (a present
    [null] is a value) or {!field_opt} (a [null] is absent).  A value
    that is not an object is not an empty object: {!field_or} and
    {!field_opt} answer [Error "expected object, found <type>"] for
    it, so a decoder whose fields are all optional rejects a string or
    a number instead of decoding it as its defaults. *)

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

val field : string -> t -> (t, string) result
(** [field key v] is {!member} as a [result], naming the missing key. *)

val field_or :
  string -> default:'a -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field_or key ~default decode v] is [decode] of the value bound to
    [key], or [Ok default] when the object [v] has no such field. *)

val field_opt :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** [field_opt key decode v] is [Ok None] when the object [v] has no
    field [key] or binds it to [null], else [decode]'s answer in
    [Some]. *)

val list_of : (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list_of decode v] decodes every item of the list [v] in order;
    the first [Error] is the answer. *)

val obj_of :
  (string -> t -> ('a, string) result) ->
  t ->
  ((string * 'a) list, string) result
(** [obj_of decode v] decodes every binding of the object [v] in key
    order with [decode key value]; the first [Error] is the answer. *)
