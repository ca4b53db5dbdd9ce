(** End-to-end admission control: elaborate a topology into runnable
    per-segment instances and check every hop of every flow.

    Elaboration turns the declarative {!Topo.t} into what the driver
    simulates, in two passes:

    + {b provisional}: each flow's end-to-end deadline [d(M)], minus
      the fixed bridge delays on its path, is split {e equally} over
      its hops; hop [i] of the flow appears on segment [i] of the path
      as a deadline class — hop 0 is the origin class with its
      deadline replaced by the hop budget, hop [i > 0] is a {e fresh}
      forwarded class owned by the crossing bridge's station, copying
      the origin's length and arrival density.  On these provisional
      instances [Feasibility.latency_bound] yields each hop's
      [B_DDCR];
    + {b final}: the bounds feed {!Rtnet_core.Decompose.split} (under
      the chosen policy) and the resulting budgets rebuild the
      elaborated instances.  A second [Feasibility.check] per segment
      then prices every hop: since the hop class's deadline {e is} its
      budget, the paper's per-class test [B_DDCR <= d] is exactly the
      admission condition "per-hop budget covers the hop's bound".

    A flow is {b admitted} iff its decomposition succeeded and every
    hop is feasible; the topology is admitted iff every flow is.  By
    the decomposition invariant ([Σ budgets + Σ bridge delays <=
    d(M)]) an admitted flow's messages meet [d(M)] end-to-end whenever
    each hop meets its budget — which, on fault-free traces, the
    per-hop [B_DDCR] feasibility guarantees (soundness caveats:
    DESIGN.md §13). *)

type hop = {
  h_segment : string;  (** segment this hop contends on *)
  h_cls : Rtnet_workload.Message.cls;
      (** the elaborated class there (origin class on hop 0 with the
          budget as deadline; a fresh forwarded class otherwise) *)
  h_budget : int;  (** the hop's deadline budget, bit-times *)
  h_bound : float;  (** [B_DDCR] of the hop class on the elaborated segment *)
  h_feasible : bool;  (** [h_bound <= h_budget] *)
  h_bridge : Topo.bridge option;
      (** the bridge crossed to reach this hop ([None] on hop 0) *)
}

type eflow = {
  ef_flow : Topo.flow;
  ef_deadline : int;  (** end-to-end [d(M)] — the origin class's deadline *)
  ef_hops : hop list;  (** path order *)
  ef_error : string option;
      (** decomposition failure (deadline cannot cover bounds +
          delays); hops then carry the equal fallback split *)
  ef_admitted : bool;  (** no error and every hop feasible *)
}

type t = {
  e_topo : Topo.t;
  e_policy : Rtnet_core.Decompose.policy;
  e_order : string list;  (** topological segment order *)
  e_levels : string list list;  (** wavefront levels (see {!Topo.levels}) *)
  e_instances : (string * Rtnet_workload.Instance.t) list;
      (** elaborated instance per segment, declaration order; the
          instance's [num_sources] grows to cover incoming bridge
          stations *)
  e_params : (string * Rtnet_core.Ddcr_params.t) list;
      (** derived CSMA/DDCR parameters per elaborated segment *)
  e_reports : (string * Rtnet_core.Feasibility.report) list;
      (** full Section 4.3 report per elaborated segment (covers local
          classes too, not just flow hops) *)
  e_flows : eflow list;
  e_admitted : bool;
  e_by_name :
    (string, Rtnet_workload.Instance.t * Rtnet_core.Ddcr_params.t) Hashtbl.t;
      (** [e_instances] and [e_params] indexed by segment name, built
          once by {!elaborate}: the table behind {!instance_of} and
          {!params_of} *)
}

val elaborate :
  ?policy:Rtnet_core.Decompose.policy -> Topo.t -> (t, string) result
(** [elaborate topo] runs both passes under [policy] (default
    {!Rtnet_core.Decompose.Proportional}).  Errors on structural
    problems that preclude elaboration entirely — routing errors
    ({!Topo.route_errors}), malformed per-segment fault plans
    ({!Topo.fault_errors}) or a cyclic bridge graph; admission
    {e failures} are not errors (inspect [e_admitted] / [ef_admitted],
    the driver can still simulate a rejected topology to observe the
    predicted misses). *)

val instance_of : t -> string -> Rtnet_workload.Instance.t
(** Elaborated instance by segment name, in constant time.
    @raise Not_found on an unknown segment. *)

val params_of : t -> string -> Rtnet_core.Ddcr_params.t
(** Parameters by segment name, in constant time.
    @raise Not_found on an unknown segment. *)

val pp_report : Format.formatter -> t -> unit
(** Per-flow hop tables (budget, [B_DDCR], headroom, verdict),
    per-segment worst margins, and the admission verdict. *)
