(** Composable fault plans for the broadcast medium.

    A fault plan bundles every way this repository can break the
    paper's medium model (Section 2.1); it is the only fault model, so
    every garbled frame of every run comes from one:

    - {b wire garbling}: a lone frame is destroyed on the wire and
      every station sees the same CRC-invalid frame.  Either i.i.d.
      per frame or governed by a Gilbert–Elliott two-state burst
      process whose good/bad states have different garble rates;
    - {b per-source misperception}: a {e listening} station locally
      decodes the slot differently from what the wire carried — it
      sees [Garbled] where the wire carried a frame, or silence where
      the wire carried a collision (imperfect carrier sensing à la
      van Glabbeek et al.).  This violates the consistent-observation
      assumption the replicated DDCR state depends on;
    - {b crash windows}: a station is scheduled to be down during
      [\[from, until)] — it neither decides, transmits nor observes,
      and must rejoin when the window closes (TDMH-style resync).

    Plans are pure data ({!spec}, with a canonical JSON codec for
    campaign specs) instantiated into a stateful sampler ({!t}) with
    one seed.  All randomness is drawn from {!Rtnet_util.Prng}
    streams derived from that seed — plans are deterministic and
    independent of the protocol under test. *)

(** Wire-garbling process for lone frames. *)
type garble =
  | Iid of { rate : float }
      (** every lone frame independently destroyed with [rate] (a
          campaign's [fault_rate] is this process) *)
  | Gilbert_elliott of {
      p_enter : float;  (** per-slot probability good → bad *)
      p_exit : float;  (** per-slot probability bad → good *)
      rate_good : float;  (** garble rate in the good state *)
      rate_bad : float;  (** garble rate in the bad (burst) state *)
    }
      (** two-state Markov burst noise: the state chain advances once
          per contention slot, the current state's rate applies to the
          slot's lone frame (if any) *)

type crash_window = {
  cw_source : int;  (** station scheduled to crash *)
  cw_from : int;  (** first bit-time of the outage *)
  cw_until : int;  (** first bit-time after the outage (exclusive) *)
}

type spec = {
  sp_garble : garble option;
  sp_misperception : float;
      (** per-slot probability that a listening live station decodes
          the slot differently from the wire (0 = consistent
          observation, the paper's model) *)
  sp_crashes : crash_window list;
  sp_garbles_at : int list;
      (** scheduled deterministic garbles: slot-start bit-times whose
          lone frame is destroyed on the wire, on top of any random
          process.  Sorted, duplicate-free.  The model checker exports
          counterexamples as these (plus crash windows), so a repro
          replays the exact fault schedule the explorer chose. *)
  sp_misperceive_at : (int * int) list;
      (** scheduled deterministic misperceptions: [(source, slot-start)]
          pairs at which that live listening station misperceives the
          slot.  Sorted, duplicate-free. *)
}

val none : spec
(** [none] is the empty plan: no garbling, consistent observation, no
    crashes.  Running under [none] is behaviourally a fault-free run. *)

val iid : float -> spec
(** [iid rate] garbles each lone frame independently with [rate]. *)

val gilbert_elliott :
  p_enter:float -> p_exit:float -> rate_good:float -> rate_bad:float -> spec
(** Burst noise; see {!garble}. *)

val misperceive : float -> spec
(** [misperceive rate] makes every listening station independently
    misperceive each slot with [rate]. *)

val crash : source:int -> from_:int -> until:int -> spec
(** [crash ~source ~from_ ~until] schedules [source] down during
    [\[from_, until)]. *)

val garble_at : int list -> spec
(** [garble_at times] schedules a deterministic wire garble of the lone
    frame (if any) of each slot starting at the given bit-times. *)

val misperceive_at : (int * int) list -> spec
(** [misperceive_at events] schedules deterministic misperceptions:
    each [(source, time)] makes [source] (if live and listening)
    misperceive the slot starting at [time]. *)

val compose : spec -> spec -> spec
(** [compose a b] overlays [b] on [a]: [b]'s garble process and
    misperception rate win when set (non-[None] / non-zero), crash
    windows are concatenated. *)

val validate : ?horizon:int -> spec -> (unit, string) result
(** [validate spec] checks every parameter: rates and probabilities in
    [\[0, 1]], Gilbert–Elliott transition probabilities strictly inside
    [(0, 1)] (at the endpoints the chain either sticks silently in one
    state or alternates deterministically — use {!Iid} for a
    single-state process), crash windows non-empty with non-negative
    bounds, non-overlapping per source and — when [horizon] is given —
    ending within it. *)

val check_stations :
  ?extra:int list -> stations:int -> spec -> (unit, string) result
(** [check_stations ~stations spec] checks that every crash window and
    every scheduled misperception names a station that exists: one of
    [0 .. stations - 1] or one of [extra] (a topology segment's
    incoming bridge stations).  {!validate} cannot check this, since it
    does not know where the plan runs; every decoder and linter that
    does calls this — the plain chaos artifact decoder, campaign spec
    validation (once per single-bus scenario),
    [Config_lint.check_fault] and [Topo.fault_errors].  A plan that
    names a missing station would otherwise run as if that atom were
    absent. *)

val is_empty : spec -> bool
(** [is_empty spec] iff the plan injects nothing at all. *)

val has_local_faults : spec -> bool
(** [has_local_faults spec] iff the plan breaks {e per-source}
    observation (misperception or crashes) — such plans are only
    meaningful for protocols that implement divergence recovery. *)

(** {1 Mutation / merge helpers}

    The chaos shrinker ([rtnet.chaos]) minimizes a failing plan along
    three axes: drop fault events, narrow crash windows, weaken
    severities.  These helpers give it a canonical decomposition of a
    plan into independent fault events and the two pointwise
    mutations, so the shrinker never has to know the record layout. *)

val atoms : spec -> spec list
(** [atoms spec] decomposes the plan into single-event plans: one for
    the garble process (if any), one for misperception (if non-zero),
    one per crash window, one per scheduled garble and one per
    scheduled misperception.  [merge (atoms spec)] rebuilds [spec]
    (up to crash-window order).  [atoms none = \[\]]. *)

val merge : spec list -> spec
(** [merge specs] folds {!compose} over [specs] (left to right) from
    {!none}: later garble/misperception settings win, crash windows
    accumulate. *)

val event_count : spec -> int
(** [event_count spec] is [List.length (atoms spec)] — the shrinker's
    size metric. *)

val scale_severity : spec -> float -> spec
(** [scale_severity spec f] multiplies every severity rate (iid garble
    rate, Gilbert–Elliott good/bad rates, misperception rate) by [f],
    clamped to [\[0, 1]].  Transition probabilities and crash windows
    are untouched — they are shrunk along the other two axes. *)

val crashes_of : spec -> source:int -> crash_window list
(** [crashes_of spec ~source] is the (declaration-ordered) list of
    [source]'s crash windows. *)

val max_outage : spec -> source:int -> int
(** [max_outage spec ~source] is the length in bit-times of [source]'s
    longest crash window (0 if it never crashes) — the worst service
    interruption a fault-aware admission test must absorb. *)

val split_crash : crash_window -> (crash_window * crash_window) option
(** [split_crash w] halves the window at its midpoint, returning the
    left and right halves, or [None] if [w] spans fewer than 2
    bit-times and cannot be narrowed further. *)

val label : spec -> string
(** [label spec] is a compact, filename-safe description, e.g.
    ["iid0.05"], ["ge0.02-0.20"], ["mp0.02+cr1@500000-1000000"],
    ["clean"] for the empty plan.  Distinct shipped plans get
    distinct labels (used in campaign cell keys). *)

val spec_to_json : spec -> Rtnet_util.Json.t
(** Canonical encoding (fixed key order); campaign spec hashes depend
    on it. *)

val spec_of_json : Rtnet_util.Json.t -> (spec, string) result
(** Decodes and {!validate}s (without a horizon): a malformed or
    out-of-range plan is rejected at the JSON boundary with the same
    diagnostics {!create} raises, never silently accepted. *)

(** {1 Instantiated plans}

    The queries below run for every station in every slot; none of
    them allocates (the first draw of a station builds its stream). *)

type t
(** A sampler: [spec] plus the PRNG streams and Gilbert–Elliott state.
    Mutable; create one per run. *)

val create : ?horizon:int -> seed:int -> spec -> t
(** [create ~seed spec] instantiates the plan.  Streams are derived
    from [seed] via {!Rtnet_util.Prng.stream} (state chain, wire
    draws and each source's misperception draws are independent).
    @raise Invalid_argument if {!validate} rejects [spec]. *)

val spec : t -> spec

val tick : t -> unit
(** [tick t] advances the Gilbert–Elliott state chain by one
    contention slot (a no-op for [Iid]/no garbling).  The channel
    calls this once per {!Channel.contend}. *)

val wire_garbles : t -> now:int -> bool
(** [wire_garbles t ~now] draws whether the lone frame of the slot
    starting at [now] is destroyed on the wire, at the current state's
    rate — always true at a scheduled garble time.  The random draw is
    taken iff a random garble process is configured (scheduled atoms
    never shift the stream). *)

val misperceives : t -> source:int -> now:int -> bool
(** [misperceives t ~source ~now] draws whether listening station
    [source] misperceives the slot starting at [now] — always true at
    a scheduled [(source, now)] misperception.  Each live listener
    draws once per slot from its own stream iff the random rate is
    non-zero, so the draws of different sources never interleave and
    scheduled atoms never shift a stream. *)

val alive : t -> source:int -> now:int -> bool
(** [alive t ~source ~now] is false iff [now] falls inside one of
    [source]'s crash windows (pure — no draw). *)
