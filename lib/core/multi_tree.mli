(** Problem P2: worst-case searches over consecutive trees
    (Section 4.2).

    When [u] messages are transmitted over [v] consecutive [t]-leaf
    balanced m-ary tree searches, the worst-case total search time is
    the optimisation problem Eq. 16.  The paper bounds it using the
    concavity of [ξ̃]: the maximum of [Σ ξ̃_{k_i}^t] under
    [Σ k_i = u, k_i ∈ [2, t]] is attained at the equal split
    (Eq. 18), giving the computable bound Eq. 19:

    [max Σ ξ_{k_i}^t ≤ v·ξ̃_{u/v}^t = ξ̃_u^{tv} − (v−1)/(m−1)]. *)

val bound : m:int -> t:int -> u:int -> v:int -> float
(** [bound ~m ~t ~u ~v] is the equal-split form [v·ξ̃_{u/v}^t] of
    Eq. 18.  The per-tree share [u/v] is clamped to [\[2, t\]]: below 2
    the clamp can only increase the value (valid upper bound, since
    [ξ_0, ξ_1 ≤ ξ̃_2]), and above [t] the message surplus is folded
    into additional trees ([v ← ⌈u/t⌉]).
    @raise Invalid_argument if [u < 0] or [v < 1]. *)

val bound_eq19 : m:int -> t:int -> u:int -> v:int -> float
(** [bound_eq19 ~m ~t ~u ~v] is the right-hand side of Eq. 19,
    [ξ̃_u^{tv} − (v−1)/(m−1)] — provably equal to {!bound} when
    [2 ≤ u/v ≤ t]; exposed separately so tests can verify Eq. 18's
    algebraic identity. *)

val worst_exact_of : xi:int array -> t:int -> u:int -> v:int -> int
(** [worst_exact_of ~xi ~t ~u ~v] is the exact optimisation of Eq. 16
    for an arbitrary per-tree cost table [xi] (index [k ∈ [0, t]]) —
    used with {!Xi_arb.table} for arbitrated media, where no concave
    asymptote is available but the tree sizes in play are small enough
    for the DP to be exact.
    @raise Invalid_argument unless [2v <= u <= t·v]. *)

val worst_exact : m:int -> t:int -> u:int -> v:int -> int
(** [worst_exact ~m ~t ~u ~v] solves Eq. 16 exactly by dynamic
    programming over compositions [k_1 + … + k_v = u] with
    [k_i ∈ [2, t]], using the exact [ξ] (left-hand side of Eq. 17/19).
    @raise Invalid_argument unless [2v <= u <= t·v]. *)
