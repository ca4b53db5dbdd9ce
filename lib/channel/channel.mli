(** Slotted broadcast channel with ternary feedback.

    The medium is shared by all sources.  Time advances in contention
    slots; in each slot every source either attempts a transmission or
    listens.  At the end of the slot all sources observe the same
    channel state — silence, busy (one transmission) or collision —
    within the slot time [x], as the paper's medium model requires.

    The channel owns the safety property of [<p.HRTDM>]: as each frame
    is carried it asserts that the frame starts no earlier than the
    previous carried frame ended, so no two carried transmissions ever
    overlap.  It keeps no transmission log: {!last_carried} exposes the
    most recent carried frame, and {!tx_count} counts them. *)

type attempt = {
  att_source : int;  (** attempting source id *)
  att_tag : int;  (** caller-chosen message tag, reported back *)
  att_bits : int;  (** Data-Link frame length [l], bits *)
  att_key : int * int;
      (** arbitration key, compared lexicographically, smaller wins;
          only used by {!Phy.Arbitration} media.  Every protocol here
          passes (absolute deadline, source id), so ties on the
          deadline go to the lower source id. *)
}

type resolution =
  | Idle  (** nobody attempted: one empty slot *)
  | Tx of { src : int; tag : int; on_wire : int }
      (** exactly one attempt: it is carried; [on_wire] is [l'] in
          bit-times *)
  | Garbled of { on_wire : int }
      (** exactly one attempt, but the frame was destroyed by channel
          noise (fault injection): the medium was busy for [on_wire]
          bit-times, every station observed a CRC-invalid frame, and
          nothing was carried — the sender's message stays queued *)
  | Clash of { contenders : (int * int) list; survivor : (int * int * int) option }
      (** two or more attempts, as [(source, tag)] pairs.  On a
          destructive medium [survivor = None] (all destroyed).  On an
          arbitration medium the smallest-key contender survives as
          [Some (src, tag, on_wire)] and its frame is carried in the
          same access. *)

type t
(** Stateful channel: medium parameters plus occupancy statistics and
    the most recent carried frame. *)

type fault = {
  fault_rate : float;  (** probability that a lone frame is garbled *)
  fault_seed : int;  (** PRNG seed: fault patterns are reproducible *)
}
(** Channel-noise model: each frame carried through {!contend} is
    independently destroyed with probability [fault_rate] (it still
    occupies the medium for its full length — the full-frame CRC-error
    model, distinguishable from a collision fragment by all stations).
    Arbitrated survivors and {!burst} continuations are not subjected
    to faults (bursting rides a verified acquisition). *)

val create : ?fault:fault -> Phy.t -> t
(** [create phy] is a fresh, idle channel over medium [phy], fault-free
    unless [fault] (the legacy i.i.d. lone-frame garbling model) is
    given.  A {!Fault_plan}'s wire-level axes (i.i.d. or
    Gilbert–Elliott burst garbling) reach the channel per slot through
    {!contend_under}; its per-source axes (misperception, crash
    windows) are sampled by the MAC harness: the channel models the
    wire, which always carries one truth.
    @raise Invalid_argument if [fault.fault_rate] is outside [\[0, 1]]. *)

val copy : t -> t
(** An independent channel in the same state (noise stream included). *)

val phy : t -> Phy.t
(** [phy ch] is the underlying medium. *)

val slot_bits : t -> int
(** [slot_bits ch] is the contention-slot duration in bit-times. *)

val contend : t -> now:int -> attempt list -> resolution * int
(** [contend ch ~now attempts] resolves one contention slot beginning
    at time [now] and returns the resolution together with the time at
    which the channel is next free (start of the next slot): [now +
    slot] after [Idle] or a destructive [Clash], [now + on_wire] after
    a [Tx], and [now + slot + on_wire] after an arbitrated [Clash].
    Statistics and {!last_carried} are updated.
    @raise Invalid_argument if [now] precedes the end of the previous
    slot, or if two attempts share a source id.
    @raise Failure ["MAC safety violated: ..."] if a carried frame would
    start before the previous carried frame ended. *)

val contend_under :
  t -> Fault_plan.t option -> now:int -> attempt list -> resolution
(** {!contend} with the slot's wire faults from [plan], returning the
    resolution alone (the next slot starts at {!free_at}, so nothing is
    paired per slot): with [Some p], [p]'s state chain advances once and
    [p] decides whether a lone frame is garbled; [None] is {!contend}.
    @raise Invalid_argument as {!contend} does, and on [Some _] for a
    channel created with a legacy [fault] (the two are exclusive). *)

val free_at : t -> int
(** [free_at ch] is the time at which the channel is next free: the
    start of the next slot after a {!contend_under}, or the end of the
    last {!burst} frame. *)

val burst : t -> src:int -> tag:int -> bits:int -> int * int
(** [burst ch ~src ~tag ~bits] appends one more frame to the channel
    acquisition of [src] (IEEE 802.3z packet bursting, Section 5) —
    valid only immediately after a slot whose resolution carried a
    frame from [src] (a [Tx] or an arbitrated [Clash] survivor) and
    before any further {!contend}.  Returns [(on_wire, next_free)].
    The overlap assertion, {!last_carried} and statistics are updated
    exactly as for a normal transmission.
    @raise Invalid_argument if [src] does not hold the channel. *)

(** Channel occupancy statistics, all in slots/bit-times of this
    channel. *)
type stats = {
  idle_slots : int;  (** slots in which nobody attempted *)
  collision_slots : int;  (** slots consumed by collisions *)
  tx_count : int;  (** messages carried *)
  garbled_count : int;  (** frames destroyed by injected noise *)
  busy_bits : int;  (** bit-times spent carrying frames *)
  total_bits : int;  (** bit-times elapsed across all resolved slots *)
}

val stats : t -> stats
(** [stats ch] is a snapshot of the counters: later {!contend} and
    {!burst} calls do not change a record already returned. *)

val tx_count : t -> int
(** [tx_count ch] is [(stats ch).tx_count], the number of frames
    carried so far, without building the snapshot. *)

val utilization : t -> float
(** [utilization ch] is [busy_bits / total_bits] (0 if nothing has
    happened yet). *)

type carried = private {
  mutable c_src : int;  (** sender, [-1] before the first carried frame *)
  mutable c_tag : int;  (** tag of the carried attempt *)
  mutable c_start : int;  (** first bit on the wire *)
  mutable c_finish : int;  (** end of the frame, [0] before the first *)
}
(** A carried frame, read-only outside this module. *)

val last_carried : t -> carried
(** [last_carried ch] is the most recent carried frame (a [Tx], an
    arbitrated survivor or a {!burst} continuation).  The record is the
    channel's own and is updated in place by every carried frame, so a
    caller can compare a completion against it without allocating. *)
