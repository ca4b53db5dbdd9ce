(** Problem P1: worst-case balanced m-ary tree search times (Section 4.1).

    [ξ_k^t] is the worst-case number of {i non-transmission} channel
    slots (collision slots plus empty slots) needed to isolate [k]
    active leaves in a [t]-leaf balanced m-ary tree, [t = m^n] — the
    highest search time over all [C(t,k)] ways of choosing the [k]
    leaves (Eq. 1).  Successful transmissions do not count.

    This module implements every expression of Section 4.1 as a
    separate entry point so that the test suite can cross-validate
    them:

    - {!of_recursion}: Eq. 1 solved by direct maximisation over
      compositions (the defining equation — expensive, used as ground
      truth);
    - {!table}: the divide-and-conquer recursion Eq. 2–3 (with the
      [t = m] base computed from Eq. 1, reproducing Eq. 4);
    - {!exact}: the closed form Eq. 10 (O(log t) per query);
    - {!eq5}, {!eq6}, {!eq7}: the special values [ξ_2^t],
      [ξ_{2t/m}^t], [ξ_t^t];
    - {!derivative}: Eq. 8, the difference [ξ_{2p+2}^t − ξ_{2p}^t];
    - {!linear_tail}: Eq. 15, the exact linear expression on
      [\[2t/m, t\]];
    - {!tilde}: Eq. 11, the concave asymptotic function [ξ̃_k^t], a
      tight upper bound on [ξ_k^t] over [\[2, 2t/m\]], exact at
      [k = 2m^i];
    - {!max_gap}, {!gap_bound}, {!gap_bound_universal}: Eq. 12–14.

    All entry points raise [Invalid_argument] when [m < 2], [t] is not
    a positive power of [m], or [k ∉ [0, t]]. *)

val exact : m:int -> t:int -> k:int -> int
(** [exact ~m ~t ~k] is [ξ_k^t] by the closed form (Eq. 10), in exact
    integer arithmetic. *)

val table : m:int -> t:int -> int array
(** [table ~m ~t] is the full vector [ξ_0^t .. ξ_t^t] computed with the
    divide-and-conquer recursion (Eq. 2–3) — an implementation
    independent of {!exact}. *)

val of_recursion : m:int -> t:int -> k:int -> int
(** [of_recursion ~m ~t ~k] solves the defining recursion (Eq. 1) by
    dynamic programming over the max-plus composition convolution.
    O(m·t²) per tree level — ground truth for moderate [t]. *)

val eq5 : m:int -> t:int -> int
(** [eq5 ~m ~t] is [ξ_2^t = m·log_m t − 1] (Eq. 5). *)

val eq6 : m:int -> t:int -> int
(** [eq6 ~m ~t] is [ξ_{2t/m}^t = (t−1)/(m−1) + t − 2t/m] (Eq. 6). *)

val eq7 : m:int -> t:int -> int
(** [eq7 ~m ~t] is [ξ_t^t = (t−1)/(m−1)] (Eq. 7). *)

val derivative : m:int -> t:int -> p:int -> int
(** [derivative ~m ~t ~p] is [ξ_{2p+2}^t − ξ_{2p}^t =
    m·(log_m t − ⌊log_m (mp)⌋) − 2] (Eq. 8), for
    [p ∈ [1, t/2 − 1]], [t = m^n] with [n ≥ 2]. *)

val linear_tail : m:int -> t:int -> k:int -> int
(** [linear_tail ~m ~t ~k] is [ξ_k^t = (mt−1)/(m−1) − k], valid on
    [k ∈ [2t/m, t]] (Eq. 15). *)

val tilde : m:int -> t:int -> float -> float
(** [tilde ~m ~t k] is the asymptotic function
    [ξ̃_k^t = (m·k/2 − 1)/(m−1) + m·(k/2)·log_m(2t/k) − k] (Eq. 11),
    defined for real [k ∈ (0, t]].  It upper-bounds [ξ_k^t] on
    [\[2, 2t/m\]] and coincides with it at [k = 2m^i]. *)

val tilde_is_exact_at : m:int -> t:int -> k:int -> bool
(** [tilde_is_exact_at ~m ~t ~k] is [true] iff [k = 2m^i] for some
    [i ∈ [0, ⌊log_m(t/2)⌋]] — the abscissas where Eq. 11 meets Eq. 10. *)

val max_gap : m:int -> t:int -> float
(** [max_gap ~m ~t] is [max_{k∈[2,2t/m]} (ξ̃_k^t − ξ_k^t)] over {b even}
    [k], i.e. over the [ξ_{2p}^t] function of Eq. 9 from which Eq. 11
    is derived — the quantity bounded by Eq. 13–14 (computed
    exhaustively; the bound is numerically tight in this form). *)

val gap_bound : m:int -> float
(** [gap_bound ~m] is the per-[m] tightness coefficient of Eq. 13:
    [m^{1/(m−1)}/(e·ln m) − 1/(m−1)]; [max_gap ~m ~t <= gap_bound ~m · t]. *)

val gap_bound_universal : float
(** [gap_bound_universal] is Eq. 14's universal coefficient
    [√√3/(2e·ln 3) − 1/8 ≈ 0.0954]: for every [m],
    [max_gap ~m ~t ≤ 9.54% · t]. *)

val expected : m:int -> t:int -> k:int -> float
(** [expected ~m ~t ~k] is the {e expected} number of non-transmission
    slots to isolate [k] active leaves drawn uniformly at random from
    the [t] leaves — the average-case counterpart of [ξ_k^t], computed
    exactly from the nested hypergeometric occupancy of the tree: a
    node is probed iff its parent subtree holds at least two active
    leaves, and a probe costs a slot unless it isolates exactly one.
    Section 3.1's channel-utilization argument rests on this average
    case ("tree protocols achieve channel utilization ratios very close
    to theoretical upper bounds"). *)

val expected_efficiency : m:int -> t:int -> k:int -> frame_slots:float -> float
(** [expected_efficiency ~m ~t ~k ~frame_slots] is the expected channel
    efficiency of one collision-resolution epoch: [k] frames of
    [frame_slots] slots each, divided by the same plus the expected
    search slots. *)

val worst_case_subset : m:int -> t:int -> k:int -> int list
(** [worst_case_subset ~m ~t ~k] is a witness: a sorted list of [k]
    distinct leaves of the [t]-leaf tree whose deterministic search
    costs exactly [ξ_k^t] slots (maximising split recovered from the
    defining recursion).  Feeding it to {!Tree_search.run} must yield
    {!exact}. *)

val total_over_ks : m:int -> t:int -> int
(** [total_over_ks ~m ~t] is [Σ_{k=2}^{t} ξ_k^t] — the figure-of-merit
    used to compare branching degrees ("optimal m", end of
    Section 4.1). *)

val best_branching : min_leaves:int -> candidates:int list -> int
(** [best_branching ~min_leaves ~candidates] returns the branching
    degree among [candidates] whose smallest tree with at least
    [min_leaves] leaves minimises {!total_over_ks} normalised by the
    leaf count. *)
