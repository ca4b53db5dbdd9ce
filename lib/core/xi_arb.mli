(** Worst-case tree search times on an {e arbitrated} medium.

    Section 3.2 notes that on busses internal to ATM switches an
    exclusive-OR wired logic yields {e non-destructive} collisions, and
    that deriving the corresponding analysis "is reasonably
    straightforward" from the destructive one.  This module is that
    derivation, executable: on an arbitrated medium every collision
    slot also carries the contender with the smallest key, so the
    search recursion loses one active leaf at each internal collision —
    the adversary chooses the winner's position (it controls deadline
    keys) to maximise the remaining search.

    [ζ_k^t] (zeta) counts the costly slots — collision slots (which
    each carry one frame but still cost a slot time beyond the frame)
    plus empty probes — in the worst case over both leaf placements and
    key assignments:

    [ζ_k^t = 1 + max over compositions k₁+…+k_m = k, max over the
    winner's subtree c (k_c ≥ 1) of Σ_{i≠c} ζ_{k_i}^{t/m} +
    ζ_{k_c−1}^{t/m}], with [ζ_0 = 1], [ζ_1 = 0].

    Arbitration is a clear win at low contention — [ζ_2^t = m]
    regardless of depth, versus [ξ_2^t = m·log_m t − 1] — but {e not}
    uniformly: near [k = t] the winners carried at internal collisions
    leave emptied leaves that still get probed, so [ζ_k^t] can exceed
    [ξ_k^t] (first at [k ≈ 3t/4] for [m = 2], much earlier for larger
    [m]).  The tests check the low-contention dominance, the agreement
    of the two independent implementations below, and that every
    simulated arbitrated search (over random key assignments) stays
    within [ζ].  Because of the high-contention penalty, the CSMA/DDCR
    automaton does {e not} split after a carried winner: on arbitrated
    media it re-probes the same interval (CAN-style), resolving [k]
    contenders in exactly [k − 1] slots — the trivial bound
    {!Feasibility.latency_bound_arbitrated} counts.  This module
    quantifies the split alternative, i.e. what running the destructive
    search schedule unchanged over a wired-OR bus would cost. *)

val table : m:int -> t:int -> int array
(** [table ~m ~t] is [ζ_0^t .. ζ_t^t] by bottom-up dynamic programming
    (max-plus composition convolution with a winner-shifted child).
    @raise Invalid_argument on invalid tree shape. *)

val of_recursion : m:int -> t:int -> k:int -> int
(** [of_recursion ~m ~t ~k] evaluates the defining recursion directly
    (exponential in the tree depth — reference implementation for the
    tests; keep [t] small). *)

val exact : m:int -> t:int -> k:int -> int
(** [exact ~m ~t ~k] is [table ~m ~t].(k) — no closed form is known, so
    this simply memoises the DP per tree shape. *)
