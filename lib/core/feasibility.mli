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

val latency_bound_arbitrated :
  Ddcr_params.t -> Rtnet_workload.Instance.t -> Rtnet_workload.Message.cls -> float
(** [latency_bound_arbitrated p inst m_cls] is [B_DDCR] for an
    arbitrated medium — the "reasonably straightforward" derivation
    Section 3.2 alludes to for busses internal to ATM switches.  Under
    the re-probing discipline the automaton uses on a non-destructive
    ({!Rtnet_channel.Phy.Arbitration}) medium every collision slot
    carries a frame, so the [u(M)] interfering messages cost at most
    [u] slots, plus the paper's [⌈v/2⌉] epoch probes.  ({!Xi_arb}
    analyses the alternative split discipline.) *)

(** {1 The incremental analysis}

    The per-pair terms of [r(M)] and [u(M)], [v(M)] and the expression
    of [B_DDCR] are written once, as private inlined functions of this
    module.  {!check} and the per-class functions add the terms up over
    an instance in one walk per class; {!Rows} keeps running sums of
    the same terms as classes come and go, for the incremental
    admission engine.  The two share the terms and the bound but no
    loop, so comparing them (the engine's self-check) compares the
    bookkeeping with an independent computation. *)

module Rows : sig
  type t
  (** A mutable set of classes, one row each, holding the class's
      deadline, window, burst, source, [l'(M)] and [ν] of its source,
      its running sums [r(M)], [u(M)] and their transmission time, a
      dirty flag and its cached [B_DDCR] unboxed.  The rows are dense
      in [\[0, length)], in no particular order. *)

  val create : Ddcr_params.t -> Rtnet_channel.Phy.t -> t
  (** [create p phy] has no row.  The medium's semantics choose the
      bound ({!latency_bound} or {!latency_bound_arbitrated}); [p]
      must be valid for every source a class will name. *)

  val length : t -> int

  val attach : t -> Rtnet_workload.Message.cls -> int
  (** [attach t c] adds [c] as row [length t] and returns that index:
      [c]'s terms go into every row, every row's terms and [c]'s own
      into the new one.  The new row and every row whose sums moved
      are dirty.  [c] must pass {!Rtnet_workload.Message.cls_validate}
      with a source of the parameters. *)

  val detach : t -> int -> unit
  (** [detach t i] removes row [i]: the last row (its sums, dirty flag
      and bound) moves to index [i], then [i]'s terms leave every
      remaining row, dirtying those whose sums moved.  The caller
      moves whatever it keeps per row the same way. *)

  val refresh : t -> s1:(u:int -> v:int -> float) -> unit
  (** [refresh t ~s1] recomputes the bound of every dirty row from its
      sums, calling [s1 ~u ~v] (the static searches [S₁ =
      Multi_tree.bound], which the caller may memoize by [(u, v)])
      once per dirty row on a destructive medium and never on an
      arbitrated one.  Each bound is bit-identical to the one {!check}
      reports for the same class set. *)

  val bounds : t -> Float.Array.t
  (** [B_DDCR] of row [i] at index [i], as of the last {!refresh}.
      The array is the rows' own: read it, do not write it, and fetch
      it again after an {!attach} (which may reallocate it). *)

  val r : t -> int -> int
  (** [r t i] is row [i]'s [r(M)]. *)

  val u : t -> int -> int
  (** [u t i] is row [i]'s [u(M)]. *)

  val v : t -> int -> int
  (** [v t i] is row [i]'s [v(M) = 1 + ⌊r(M)/ν⌋]. *)
end

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

val headroom_bounds : report -> Rtnet_telemetry.Headroom.bound list
(** [headroom_bounds r] is [r]'s rows as the per-class bounds that
    telemetry annotates a run with: [B_DDCR] and the implementation
    bound of every class, in class-id order. *)

val pp_report : Format.formatter -> report -> unit
(** [pp_report fmt r] prints the per-class table and the verdict. *)
