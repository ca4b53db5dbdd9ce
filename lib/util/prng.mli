(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic workload generators and randomized baselines draw
    from this generator so that every simulation is exactly
    reproducible from its seed — a prerequisite for the
    bound-domination tests, which must be re-runnable on failure.

    The streams are pinned: the unit tests compare the first values of
    every draw and of {!split} and {!copy} children for six seeds, and
    samples of {!shuffle}, {!derive} and {!stream}, against a committed
    listing, and seed 1234567's {!bits64} stream against the published
    SplitMix64 reference outputs.  [int], [bool] and {!below} allocate nothing;
    [bits64], [float] and [exponential] allocate only the box of their
    result. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val derive : int -> int -> int
(** [derive seed i] is a child seed for index [i >= 0], a pure function
    of [(seed, i)].  Child seeds for distinct indices (and the streams
    they generate) are statistically independent of each other and of
    [create seed]'s own stream — the campaign runner derives one
    per-cell seed this way, so a sweep's cells can be executed in any
    order, serially or in parallel, with bit-identical results, and
    cannot collide with the scenario seeds users pass directly.
    Results are non-negative.
    @raise Invalid_argument if [i < 0]. *)

val stream : seed:int -> path:int list -> t
(** [stream ~seed ~path] is a generator for the hierarchical stream
    reached by folding {!derive} over [path] — e.g.
    [stream ~seed ~path:[scenario; variant; replicate]].  Distinct
    paths yield independent streams; the empty path is
    [create seed]. *)

val bits64 : t -> int64
(** [bits64 g] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)].  Requires [x > 0.]. *)

val below : t -> float -> bool
(** [below g p] is a Bernoulli draw with success probability [p]: it
    is [float g 1.0 < p] bit for bit, consuming the same one draw, but
    returns an unboxed [bool].  [p <= 0.] (or NaN) is never and
    [p >= 1.] always true. *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val exponential : t -> float -> float
(** [exponential g rate] draws from Exp([rate]).  Requires [rate > 0.]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle g arr] permutes [arr] in place, uniformly. *)
