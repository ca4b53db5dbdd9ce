(** Multi-bus operation.

    Section 3.2 notes that "many such media can be used in parallel",
    and Section 5 reports deployed {i dual-bus} CSMA/DCR Ethernets
    (e.g. across the Ariane launchpad).  This module partitions an
    HRTDM instance's message set over [n] parallel busses (each source
    is attached to every bus), checks the feasibility conditions per
    bus, and simulates the busses independently — the multiaccess
    problem is per-bus, so everything from the single-bus theory
    applies unchanged to each member. *)

type assignment = private {
  original : Rtnet_workload.Instance.t;  (** the single-bus instance *)
  buses : Rtnet_workload.Instance.t array;  (** per-bus class subsets *)
  bus_of_class : (int * int) list;  (** class id → bus index *)
}

val partition :
  Rtnet_workload.Instance.t -> buses:int -> (assignment, string) result
(** [partition inst ~buses] splits [inst]'s classes over [buses]
    parallel busses by greedy worst-fit on peak offered load (heaviest
    class first onto the least-loaded bus) — the classic bin-packing
    heuristic for load balancing.  Tie-breaking is explicitly
    deterministic: classes of equal load are taken in ascending class
    id, and equal-load busses resolve to the lowest bus index, so the
    partition is a pure function of the class set (independent of
    input order) — required for reproducible topology fingerprints.
    Fails if [buses < 1] or there are fewer classes than busses. *)

val partition_exn :
  Rtnet_workload.Instance.t -> buses:int -> assignment
(** [partition_exn] is {!partition} or
    @raise Invalid_argument on rejection. *)

type report = {
  per_bus : (Ddcr_params.t * Feasibility.report) array;
      (** derived parameters and FC report per bus *)
  feasible : bool;  (** all busses feasible *)
  worst_margin : float;  (** max over busses *)
}

val check : assignment -> report
(** [check a] derives default CSMA/DDCR parameters per bus and
    evaluates the Section 4.3 feasibility conditions for each. *)

val run :
  ?seed:int ->
  assignment ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run a ~horizon] simulates every bus independently under CSMA/DDCR
    (its own channel, its own replicas) and merges the outcomes via
    {!Rtnet_stats.Run.merge}: completions re-sorted by finish time,
    channel statistics summed.  The merged protocol label is
    ["csma-ddcr/<n>-bus"].  This is exactly the flowless star special
    case of the [Rtnet_topology] driver ([Topo.of_assignment] builds
    the equivalent bridge-free topology and its driver reproduces this
    function's outcome completion for completion — pinned by a test),
    so both scale stories share one merge code path. *)

val pp_report : Format.formatter -> report -> unit
(** [pp_report fmt r] prints per-bus margins and the verdict. *)

val dimension :
  ?max_buses:int -> Rtnet_workload.Instance.t -> (assignment * report) option
(** [dimension inst] finds the smallest number of parallel busses
    (from 1 up to [max_buses], default 4, and never more than the
    class count) for which every bus passes its feasibility conditions,
    returning the assignment and its report — or [None] if even the
    maximum does not suffice. *)
