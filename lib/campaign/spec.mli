(** Declarative experiment-campaign specification.

    A campaign is a sweep over [protocol × scenario × variant ×
    replicate]: every protocol in {!t.protocols} is run on every
    scenario in {!t.scenarios} under every parameter {!variant}, for
    {!t.replicates} independently seeded arrival traces.  The spec is
    pure data — it can be written as an OCaml value (the
    {!builtins}) or loaded from a JSON file ({!load_file}) — and
    {!Grid.cells} compiles it into the deterministic work-list the
    worker pool executes.

    The canonical JSON rendering of a spec ({!to_json}) also defines
    its identity: {!hash} digests it, and both the checkpoint journal
    and the regression gate refuse to mix results from different spec
    hashes. *)

type protocol = Ddcr | Beb | Dcr | Tdma | Oracle | Topo

val all_protocols : protocol list
(** [all_protocols] is every {e single-medium} protocol, in canonical
    order.  {!Topo} is deliberately excluded: a topo cell is a whole
    federated tree of segments, only meaningful with ["topo"]
    scenarios, and including it here would change the cell grids (and
    golden baselines) of every shipped campaign. *)

val protocol_label : protocol -> string
(** ["ddcr"], ["beb"], ["dcr"], ["tdma"], ["oracle"] or ["topo"] — the
    same names the [ddcr_sim] CLI uses. *)

val protocol_of_string : string -> (protocol, string) result

type scenario = {
  sc_kind : string;
      (** one of: videoconference, atc, trading, atm, manufacturing,
          skewed, uniform, topo *)
  sc_size : int;
      (** stations / radars / gateways / ports / sources; for topo:
          the number of federated segments *)
  sc_load : float;  (** peak offered load (uniform and topo only) *)
  sc_deadline_windows : float;
      (** relative deadline in window units (uniform and topo only) *)
  sc_fanout : int;
      (** tree fan-out (topo only; 1 elsewhere).  A topo scenario is a
          {!Rtnet_topology.Topo.tree} of [sc_size] uniform segments of
          4 sources each, fan-out [sc_fanout], with one flow per
          non-root segment routed up to the root. *)
}

val scenario_kinds : string list
(** The [sc_kind]s {!validate} accepts. *)

val scenario_label : scenario -> string
(** e.g. ["trading-4"] or ["uniform-8-0.30"] — stable across runs, used
    in cell keys and reports. *)

val scenario_to_json : scenario -> Rtnet_util.Json.t
(** Canonical encoding (fixed key order) — embedded in campaign specs
    and chaos replay artifacts alike. *)

val scenario_of_json : Rtnet_util.Json.t -> (scenario, string) result
(** [load]/[deadline_windows]/[fanout] may be omitted (defaults 0.3 /
    2.0 / 1), matching hand-written spec files; the ["fanout"] key is
    only written for topo scenarios, so pre-topology specs round-trip
    byte-identically. *)

val instance : scenario -> Rtnet_workload.Instance.t
(** [instance sc] builds the workload instance
    ({!Rtnet_workload.Scenarios.of_kind}).
    @raise Failure on an unknown [sc_kind] or a rejected size
    ({!validate} rejects such specs first) and on ["topo"] — a topo
    scenario is a federation, not one instance; [Grid] builds it via
    [Rtnet_topology.Topo.tree]. *)

val instance_result : scenario -> (Rtnet_workload.Instance.t, string) result
(** [instance] with its errors (unknown kind, ["topo"], a size the
    scenario builder rejects) returned as [Error] — the CLIs and the
    chaos subjects report these and exit 2. *)

type variant = {
  v_fault_rate : float;
      (** shorthand for the plan [Fault_plan.iid v_fault_rate] (ddcr and
          beb), seeded with the cell's fault seed; 0 = off *)
  v_burst_bits : int;  (** packet-bursting budget, 0 = off (ddcr) *)
  v_theta : int;  (** compressed-time increment, 0 = off (ddcr) *)
  v_fault_plan : Rtnet_channel.Fault_plan.spec option;
      (** composable fault plan (burst noise, misperception, crash
          windows); mutually exclusive with [v_fault_rate].  Plans with
          per-source faults require [protocols = \[Ddcr\]]; wire-only
          plans also allow [Beb]. *)
}

val default_variant : variant
(** No faults, no bursting, no compressed time. *)

val variant_label : variant -> string
(** e.g. ["f0.05-b0-t0"]; a fault plan appends its
    {!Rtnet_channel.Fault_plan.label}, e.g. ["f0.00-b0-t0-iid0.15"]. *)

type t = {
  name : string;  (** campaign name; reports default to [BENCH_<name>.json] *)
  base_seed : int;  (** root of every derived per-cell seed *)
  replicates : int;  (** independently seeded traces per configuration *)
  horizon_ms : int;  (** simulated duration per cell *)
  protocols : protocol list;
  scenarios : scenario list;
  variants : variant list;
}

val validate : t -> (unit, string) result
(** [validate spec] checks shape: non-empty name/axes, positive
    replicates and horizon, known scenario kinds, fault rates within
    [\[0, 1\]], no duplicate cells (distinct scenario and variant
    labels). *)

val cell_count : t -> int
(** [cell_count spec] is
    [protocols × scenarios × variants × replicates]. *)

val to_json : t -> Rtnet_util.Json.t
(** Canonical rendering: fixed key order, every field explicit —
    equal specs produce equal bytes. *)

val of_json : Rtnet_util.Json.t -> (t, string) result
(** Decoder.  [load], [seeds] etc. are exactly the keys {!to_json}
    writes; [scenarios] entries may omit [load]/[deadline_windows]
    (defaults 0.3 / 2.0) and the top level may omit [variants]
    (default [[default_variant]]). *)

val load_file : string -> (t, string) result
(** [load_file path] parses and validates a JSON spec file. *)

val hash : t -> string
(** [hash spec] is the hex digest of the canonical JSON — the identity
    checkpoint files and the regression gate match on. *)

val builtins : (string * t) list
(** Shipped campaigns:
    - ["smoke"]: 2 protocols × 2 scenarios, 1 ms — seconds to run; the
      [make campaign-smoke] gate.
    - ["campaign_v1"]: all 5 protocols × 3 scenarios × {clean, 5%
      i.i.d. noise} × 2 replicates, 2 ms — the committed
      [BENCH_campaign_v1.json] baseline, gated by [make campaign-smoke].
    - ["load_sweep"]: all protocols over the uniform scenario at 6
      offered loads — the Fig. E7 comparison as a campaign.
    - ["fault_sweep"]: CSMA/DDCR under every builtin fault plan (clean,
      i.i.d. noise, Gilbert–Elliott bursts, misperception, crash/rejoin
      and their composition) — the robustness trajectory
      ([BENCH_fault_sweep.json]).
    - ["topology_sweep"]: federated trees (segment count × fan-out) at
      an admitted load point — the end-to-end trajectory
      ([BENCH_topology_sweep.json]).
    - ["topology_fault_sweep"]: the 3-segment tree, clean and under a
      scheduled crash of the root's inbound bridge — bridge failover
      and degraded-mode drain as a pinned trajectory
      ([BENCH_topology_fault_sweep.json]).
    - ["perf_v1"]: DDCR and TDMA on two scenarios at 5 ms
      ([BENCH_perf.json]); the regression gate pins their cell metrics.
      The name is historical: the report carries no timing beyond
      [wall_clock_s], and speed is measured by perfbench. *)

val find_builtin : string -> t option
