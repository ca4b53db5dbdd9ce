(** Feasibility Conditions for HRTDM under CSMA/DDCR (Section 4.3).

    For a message class [M] of source [s_i], the paper derives, under
    peak-load (worst-case) arrival conditions:

    - [r(M) = Σ_{m∈MSG_i} ⌈d(M)/w(m)⌉·a(m) − 1], an upper bound on the
      number of [s_i]'s own messages serviced before [M];
    - [u(M) = Σ_{m∈MSG} ⌈(d(M)+d(m)−l'(M)/ψ)/w(m)⌉·a(m)], an upper
      bound on the messages transmitted by {i all} sources over
      [I(M) = [T(M), T(M)+d(M))];
    - [v(M) = 1 + ⌊r(M)/ν_i⌋], an upper bound on the static tree
      searches needed before [M]'s turn;
    - [B_DDCR(s_i, M)]: the transmission time of the [u(M)] messages
      plus [x·(S₁ + S₂)], where [S₁ = v·ξ̃^q_{u/v}] bounds the static
      searches (problem P2) and [S₂ = ⌈v/2⌉·ξ₂^F] bounds the time-tree
      searches (two active leaves per time tree being the worst case).

    The instance is feasible iff [B_DDCR(s_i, M) ≤ d(M)] for every
    class.

    All quantities are in bit-times ([ψ = 1] bit per bit-time), with
    [l'] the PHY-expanded frame length and [x] the slot time of the
    instance's medium. *)

val rank_bound : Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> int
(** [rank_bound inst m_cls] is [r(M)].
    @raise Invalid_argument if the class is not part of [inst]. *)

val interference_bound :
  Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> int
(** [interference_bound inst m_cls] is [u(M)] (per-class terms with a
    non-positive numerator contribute zero). *)

val static_trees_bound :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> int
(** [static_trees_bound p inst m_cls] is [v(M)]. *)

val search_slot_bound :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [search_slot_bound p inst m_cls] is [S = S₁ + S₂] in slots. *)

val latency_bound :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [latency_bound p inst m_cls] is [B_DDCR(s_i, M)] in bit-times —
    the paper's formula, verbatim. *)

val latency_bound_impl :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [latency_bound_impl p inst m_cls] adds to {!latency_bound} the
    constant per-realisation overheads the paper's formula omits (see
    DESIGN.md §4): the open-attempt/collision slots bracketing each
    time-tree epoch ([2·x·(⌈v/2⌉+1)]) and one maximal frame of
    head-of-medium blocking (plus the packet-bursting budget when
    bursting is enabled).  Simulated latencies are validated against
    this bound. *)

val search_slot_bound_arbitrated :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [search_slot_bound_arbitrated p inst m_cls] is the counterpart of
    {!search_slot_bound} for a non-destructive
    ({!Rtnet_channel.Phy.Arbitration}) medium under the re-probing
    discipline the automaton uses there: every collision slot carries a
    frame, so the [u(M)] interfering messages cost at most [u] slots,
    plus the paper's [⌈v/2⌉] epoch probes.  ({!Xi_arb} analyses the
    alternative split discipline.) *)

val latency_bound_arbitrated :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [latency_bound_arbitrated p inst m_cls] is [B_DDCR] for an
    arbitrated medium — the "reasonably straightforward" derivation
    Section 3.2 alludes to for busses internal to ATM switches. *)

type class_report = {
  cr_cls : Rtnet_workload.Message.cls;  (** the class [M] *)
  cr_r : int;  (** [r(M)] *)
  cr_u : int;  (** [u(M)] *)
  cr_v : int;  (** [v(M)] *)
  cr_search_slots : float;  (** [S₁ + S₂] *)
  cr_bound : float;  (** [B_DDCR], bit-times *)
  cr_bound_impl : float;  (** implementation bound, bit-times *)
  cr_feasible : bool;  (** [B_DDCR ≤ d(M)] *)
}

type report = {
  per_class : class_report list;  (** one entry per class, id order *)
  feasible : bool;  (** conjunction over classes (paper bound) *)
  worst_margin : float;
      (** max over classes of [B_DDCR/d] — [≤ 1] iff feasible; the
          distance to (in)feasibility *)
}

val check : Ddcr_params.t -> Rtnet_workload.Instance.t -> report
(** [check p inst] evaluates the feasibility conditions for every
    class, using {!latency_bound} on destructive media and
    {!latency_bound_arbitrated} on arbitrated ones (the medium's
    semantics decide which analysis applies).  Cost for [n] classes:
    one walk over the classes per class ([O(n²)] integer work), one
    {!Multi_tree.bound} per class, [O(n)] allocation.
    @raise Invalid_argument if [p] fails validation. *)

val pp_report : Format.formatter -> report -> unit
(** [pp_report fmt r] prints the per-class table and the verdict. *)
