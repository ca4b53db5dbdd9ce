(** Incremental admission engine: the Section 4.3 feasibility analysis
    maintained as a running data structure instead of recomputed per
    request.

    The engine writes none of the analysis itself.  The admitted flows'
    running sums of [r(M)], [u(M)] and the interference transmission
    time, and their [B_DDCR], are {!Rtnet_core.Feasibility.Rows}: the
    per-pair terms, [v(M)], the bound and the three loops over the
    residents (add a flow's terms, subtract them and swap-remove its
    row, refresh the dirty bounds) are all in
    {!Rtnet_core.Feasibility}, which {!Rtnet_core.Feasibility.check}
    shares the terms and the bound with.  Admitting or evicting a flow
    [f] adds or subtracts [f]'s terms from each resident class in O(1)
    per class (with only the classes whose sums moved marked dirty),
    instead of re-running the O(n²) pairwise analysis.  The ξ
    machinery is cached: the time-tree bound [ξ₂ = Xi.eq5] is a
    constant of the parameters, and the static-tree bound
    [S₁ = Multi_tree.bound] is memoized by its only inputs [(u, v)]
    ({!S1_memo}) and called once per dirty row.

    The engine keeps the flow table and an entry per admitted flow,
    densely in an array at its row's index; evicting one moves the last
    entry into its place as the rows do (swap-remove), so a decision
    walks arrays and rebuilds no list.  Which class binds never depends
    on that order: the engine's walk over the bounds takes the least
    headroom, ties to the lower class id.

    Because the sums are exact integers and the bound is Feasibility's
    own expression, the incremental answer is bit-identical to a
    from-scratch {!Rtnet_core.Feasibility.check} — an invariant
    {!selfcheck} asserts and the service's differential mode gates
    on. *)

type t

val create :
  phy:Rtnet_channel.Phy.t ->
  num_sources:int ->
  params:Rtnet_core.Ddcr_params.t ->
  (t, string) result
(** [create ~phy ~num_sources ~params] is an empty engine; the
    parameters are validated against [num_sources]. *)

type reject_code =
  | Infeasible of { binding : string; headroom : float }
      (** some class's [B_DDCR] would exceed its deadline; [binding]
          is the worst class and [headroom] its (negative) slack *)
  | Unknown_flow  (** remove/modify of a flow that is not admitted *)
  | Duplicate_flow  (** add of a flow id that is already admitted *)
  | Invalid_params of string  (** malformed flow parameters *)
  | Overloaded of { retry_after : int }
      (** shed by the service's backpressure (never emitted by the
          engine itself); [retry_after] is the backlog hint *)

type decision =
  | Accepted of { binding : (string * float) option }
      (** admitted; [binding] is the tightest class and its headroom
          [d − B_DDCR] after the change ([None] when the flow set
          became empty) *)
  | Rejected of reject_code

val decision_code : decision -> string
(** Stable short code: ["accepted"], ["infeasible"], ["unknown-flow"],
    ["duplicate-flow"], ["invalid-params"] or ["overloaded"]. *)

val decision_to_json : decision -> Rtnet_util.Json.t
val decision_of_json : Rtnet_util.Json.t -> (decision, string) result

val decide : t -> Request.t -> decision
(** [decide t req] answers [req] and, if accepted, mutates the
    admitted set.  Malformed or inconsistent requests yield structured
    rejections — never an exception.  A rejected [Modify] leaves the
    old flow admitted (atomic replace). *)

val decide_full : t -> Request.t -> decision
(** [decide_full t req] reaches the same decision as {!decide} but
    evaluates the tentative flow set from scratch with
    {!Rtnet_core.Feasibility.check} on {!instance}, the paper's own
    checker, consulting no running sum and no memo.  The binding class
    is the one with least headroom [d − B_DDCR], ties to the lower
    class id.  The differential tests compare {!decide} with this
    path, and the bench guard pins {!decide} at ≥10× it. *)

val apply : t -> Request.t -> decision -> (unit, string) result
(** [apply t req d] replays a journaled decision without re-deciding:
    accepted requests mutate the admitted set, rejections are no-ops.
    Errors indicate a journal inconsistent with the engine state. *)

val selfcheck : t -> (unit, string) result
(** [selfcheck t] runs a from-scratch {!Rtnet_core.Feasibility.check}
    over the current admitted set and demands exact equality — integer
    for integer, float bit for float bit — with the cached values.
    [Ok ()] on an empty set. *)

val size : t -> int
val params : t -> Rtnet_core.Ddcr_params.t
val phy : t -> Rtnet_channel.Phy.t
val num_sources : t -> int

val flows : t -> (Request.flow * int) list
(** Admitted flows with their engine-assigned class ids, in class-id
    (= admission) order. *)

val headroom : t -> (string * float) option
(** Current binding class and its headroom; [None] when empty. *)

val instance : t -> (Rtnet_workload.Instance.t, string) result
(** [instance t] materializes the admitted set as a workload instance
    (periodic arrivals phased at each flow's offset) — the bridge to
    the simulator and to {!Rtnet_core.Feasibility}. *)

val snapshot : t -> Rtnet_util.Json.t
(** Serialize the admitted set (flows + class-id counter).  The caches
    are not serialized; {!restore} rebuilds them. *)

val restore :
  phy:Rtnet_channel.Phy.t ->
  num_sources:int ->
  params:Rtnet_core.Ddcr_params.t ->
  Rtnet_util.Json.t ->
  (t, string) result
(** [restore ~phy ~num_sources ~params j] rebuilds an engine from a
    {!snapshot}, recomputing every cached sum from scratch.  [Error] on
    a malformed snapshot, including one that repeats a flow id or a
    class id. *)

(** The [S₁] memo: [Multi_tree.bound ~m ~t ~u ~v] keyed by [(u, v)] in
    an open-addressed table of [(u, v, S₁)] slots.  A lookup hashes and
    compares the two ints in place — no key is built, no functor
    closure called — and a hit returns the stored float box, so it
    allocates nothing; the table doubles when more than half full.
    Exposed so tier-1 can check it against [Multi_tree.bound] across
    every growth. *)
module S1_memo : sig
  type t

  val create : m:int -> t:int -> t
  (** An empty memo of [Multi_tree.bound ~m ~t], 256 slots. *)

  val find : t -> u:int -> v:int -> float
  (** [find memo ~u ~v] is [Multi_tree.bound ~m ~t ~u ~v], computed on
      the first lookup of [(u, v)] (a miss) and read back after (a
      hit).  Raises what [Multi_tree.bound] raises. *)

  val hits : t -> int
  val misses : t -> int

  val capacity : t -> int
  (** Slots in the table. *)
end

type stats = {
  st_decisions : int;  (** decisions answered *)
  st_s1_hits : int;  (** S₁ memo hits *)
  st_s1_misses : int;  (** S₁ memo misses (fresh Multi_tree calls) *)
}

val stats : t -> stats
