(** Declarative multi-hop topologies of DDCR segments.

    The paper proves deadline bounds for {e one} broadcast segment of
    [z] sources; scaling beyond [z] means federating segments.  A
    {!t} describes such a federation:

    - {b segments} — independent broadcast media, each with its own
      HRTDM instance (sources, message classes, arrival laws);
    - {b bridges} — store-and-forward relay stations: a bridge listens
      on its [br_from] segment (broadcast reception is free on a
      shared medium) and re-transmits, as station [br_station] of the
      [br_to] segment, the frames of flows routed across it, after a
      fixed relaying delay [br_latency];
    - {b flows} — end-to-end traffic: a message class of the first
      path segment whose arrivals must reach the last path segment
      within the class's relative deadline [d(M)].

    The bridge graph must be acyclic (checked by {!toposort}); the
    driver exploits the DAG to run segments wavefront-by-wavefront,
    which is observationally equivalent to slot-lockstep because
    frames only ever travel {e down} the DAG.

    Values can be built programmatically ({!create}, {!tree},
    {!of_assignment}) or loaded from a JSON spec ({!of_json}) whose
    segments carry declarative workload descriptors (the same scenario
    kinds the campaign layer uses). *)

type workload = {
  wk_kind : string;
      (** scenario kind: videoconference | atc | trading | atm |
          manufacturing | skewed | uniform *)
  wk_size : int;  (** stations / radars / gateways / ... *)
  wk_load : float;  (** peak offered load (uniform only) *)
  wk_deadline_windows : float;  (** relative deadline in windows (uniform only) *)
}
(** Declarative per-segment workload, mirroring the campaign scenario
    dispatch so JSON topology specs and campaign sweeps describe
    traffic identically. *)

type segment = {
  sg_name : string;  (** unique segment name *)
  sg_instance : Rtnet_workload.Instance.t;  (** local traffic *)
  sg_workload : workload option;
      (** the descriptor the instance was built from, when it was —
          required to serialize the topology back to JSON *)
  sg_fault : Rtnet_channel.Fault_plan.spec option;
      (** the segment's fault plan, if any: garbling, misperception and
          crash windows local to this broadcast medium.  A crash window
          naming a bridge's [br_station] models that {e bridge} going
          down (see {!fault_errors}).  Sampler seeds are derived
          protocol-blind by the driver from the run seed and the
          segment's declaration index. *)
}

type bridge = {
  br_name : string;  (** unique bridge name *)
  br_from : string;  (** upstream segment (the bridge listens here) *)
  br_to : string;  (** downstream segment (the bridge transmits here) *)
  br_station : int;
      (** the bridge's station id on [br_to] — an {e additional}
          station when [>= num_sources] (the elaborated instance
          grows), or a double-duty existing one *)
  br_latency : int;  (** fixed store-and-forward delay, bit-times *)
  br_capacity : int;
      (** store-and-forward queue depth, messages ([>= 1], default 64).
          While the bridge is crashed the queue stops draining; held
          messages beyond this bound are dropped oldest-past-deadline
          first and surface as a [Bridge_overflow] verdict. *)
}

type flow = {
  fl_name : string;  (** unique flow name *)
  fl_cls : int;  (** class id on the first path segment *)
  fl_path : string list;
      (** hop path, at least 2 segment names; consecutive hops must be
          joined by a bridge *)
  fl_criticality : int;
      (** shedding priority under degraded-mode operation: when a
          revived bridge's backlog cannot be re-decomposed feasibly,
          flows are shed lowest-criticality-first (default 0) *)
}

val default_capacity : int
(** Default [br_capacity] (64 messages); the JSON codec omits the
    [capacity] key at this value so pre-fault specs round-trip
    byte-identically. *)

type t = {
  tp_name : string;
  tp_segments : segment list;
  tp_bridges : bridge list;
  tp_flows : flow list;
}

val segment_of_workload : name:string -> workload -> (segment, string) result
(** [segment_of_workload ~name wk] builds the segment instance from the
    descriptor with {!Rtnet_workload.Scenarios.of_kind} — the decoder
    campaign scenarios use too — relabelled with the segment name. *)

val create :
  name:string ->
  segments:segment list ->
  bridges:bridge list ->
  flows:flow list ->
  (t, string) result
(** [create ~name ~segments ~bridges ~flows] validates the {e shape}:
    non-empty segment list, unique segment / bridge / flow names,
    bridge endpoints naming existing distinct segments, at most one
    bridge per [(from, to)] pair, non-negative station ids and
    latencies.  Routing problems (unknown path segments, missing
    bridges, cycles, shared origin classes) are deliberately {e not}
    rejected here — they are reported granularly by {!route_errors} /
    {!toposort} so the CFG-TOPO lint can diagnose them. *)

val create_exn :
  name:string ->
  segments:segment list ->
  bridges:bridge list ->
  flows:flow list ->
  t
(** {!create} or @raise Invalid_argument. *)

val segment_lookup : t -> string -> segment option
(** [segment_lookup t] indexes [t]'s segments by name once; the
    returned function finds a segment in constant time (the first
    declared, should two share a name).  Apply it to [t] once and keep
    the lookup for repeated queries. *)

val find_bridge : t -> from_:string -> to_:string -> bridge option
(** [find_bridge t] groups [t]'s bridges by upstream segment once; the
    returned function finds the first-declared bridge [from_ -> to_]
    by scanning only the bridges out of [from_].  Like
    {!segment_lookup}, apply it to [t] once per batch of queries. *)

val bridges_into : t -> string -> bridge list
(** [bridges_into t] groups [t]'s bridges by downstream segment once;
    the returned function lists the bridges into a segment, in
    declaration order ([[]] for an unknown name). *)

val toposort : t -> (string list, string) result
(** [toposort t] orders segment names upstream-first along the bridge
    graph (stable: ties keep declaration order), or reports a cycle
    by naming the segments involved. *)

val levels : t -> (string list list, string) result
(** [levels t] groups the topological order into wavefronts: level [k]
    holds the segments whose longest bridge path from a root has [k]
    edges.  All segments of one level are independent (no bridge joins
    them, transitively through earlier levels only) and can be
    simulated in parallel once levels [< k] completed. *)

val route_errors : t -> string list
(** [route_errors t] checks every flow's route: path length [>= 2],
    known and non-repeating path segments, an existing bridge for each
    consecutive hop pair, an existing origin class, and no two flows
    sharing an origin class.  Returns one message per problem (empty =
    routable). *)

val with_faults :
  t -> (string * Rtnet_channel.Fault_plan.spec) list -> (t, string) result
(** [with_faults t plans] attaches each [(segment, spec)] to its
    segment, {!Rtnet_channel.Fault_plan.compose}-overlaying onto any
    plan already present.  [Error] if a pair names an unknown segment.
    Station validity is {e not} checked here — see {!fault_errors}. *)

val fault_errors : t -> string list
(** [fault_errors t] checks every segment's fault plan: the spec itself
    must {!Rtnet_channel.Fault_plan.validate}, and each crash window's
    [cw_source] must be a station that exists on that segment — a
    declared source or an incoming bridge's [br_station].  One message
    per problem (empty = fault-clean), mirroring {!route_errors};
    surfaced as CFG-TOPO-FAULT by the lint and rejected by
    [Admit.elaborate]. *)

val aggregate_sources : t -> int
(** Total stations across segments (bridge stations not counted
    twice — they are stations of their [br_to] segment only when
    [br_station >= num_sources]; this sums the {e declared} instances,
    the elaborated count can be higher). *)

val tree :
  name:string ->
  segments:int ->
  fanout:int ->
  sources:int ->
  load:float ->
  deadline_windows:float ->
  ?bridge_latency:int ->
  unit ->
  t
(** [tree ~name ~segments ~fanout ~sources ~load ~deadline_windows ()]
    builds a uniform [fanout]-ary tree of [segments] uniform-workload
    segments: segment 0 is the root, segment [i]'s parent is
    [(i−1)/fanout].  Every non-root segment gets a bridge to its
    parent (as a fresh station [sources + ordinal-among-siblings] of
    the parent, [bridge_latency] defaulting to 4096 bit-times) and one
    flow: its class 0 routed up the whole path to the root — so a
    depth-2 tree exercises genuine multi-hop forwarding.
    @raise Invalid_argument if [segments < 1] or [fanout < 1]. *)

val of_assignment : name:string -> Rtnet_core.Multi_bus.assignment -> t
(** [of_assignment ~name a] is the flowless star: one segment per
    parallel bus of the {!Rtnet_core.Multi_bus} partition, no bridges,
    no flows — the 1-hop special case under which the topology driver
    reproduces [Multi_bus.run] exactly. *)

val to_json : t -> (Rtnet_util.Json.t, string) result
(** Canonical JSON spec; errors if a segment lacks its workload
    descriptor (programmatic instances are not serializable). *)

val of_json : Rtnet_util.Json.t -> (t, string) result
val load_file : string -> (t, string) result

val pp : Format.formatter -> t -> unit
(** Multi-line summary: segments, bridges, flows. *)
