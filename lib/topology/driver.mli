(** Federated multi-segment simulation with end-to-end verdicts.

    The driver executes an elaborated topology ({!Admit.t}) segment by
    segment along the wavefront levels of the bridge DAG
    ({!Topo.levels}).  Frames only travel {e down} the DAG, so running
    a whole upstream segment to the horizon before its downstream
    neighbours start is observationally equivalent to slot-lockstep
    co-simulation (DESIGN.md §13) — and lets each level's segments run
    in parallel OCaml domains.

    Per segment it runs the ordinary CSMA/DDCR simulator
    ({!Rtnet_core.Ddcr.run_trace}) with the federation hook of
    {!Rtnet_mac.Harness.run}: [?inject] feeds the bridge deliveries
    ([finish + br_latency] on the downstream segment) into the arrival
    stream, and the outcome's completions of flow-hop classes are what
    the segment forwards.  Between levels the (sequential, deterministic)
    coordinator turns upstream completions into downstream arrivals —
    so the parallel run is fingerprint-identical to [~domains:1].

    Every origin arrival of a flow class opens a {e chain}; the
    verdict classifies each chain: delivered in time, missed (with the
    miss {b attributed} to a specific hop — the first hop that
    overran its decomposed budget, which by the decomposition
    invariant must exist whenever the end-to-end deadline is missed),
    or still in flight (undelivered but with its deadline beyond the
    horizon — excused, not a miss). *)

type miss = {
  ms_flow : string;
  ms_uid : int;  (** origin message uid *)
  ms_t0 : int;  (** origin arrival, bit-times *)
  ms_deadline : int;  (** absolute end-to-end deadline [T0 + d(M)] *)
  ms_finish : int option;  (** final-hop finish; [None] if undelivered *)
  ms_hop : string;  (** segment of the attributed hop *)
  ms_hop_index : int;  (** 0-based hop index on the flow's path *)
  ms_fault : string option;
      (** the faulty hop, when there is one to blame: the bridge whose
          crash window held the chain, else the attributed segment if
          it carries a fault plan; [None] = a genuine fault-free
          overrun *)
}

type bridge_drop = {
  bd_bridge : string;  (** overflowing bridge *)
  bd_flow : string;
  bd_uid : int;  (** origin message uid *)
  bd_at : int;  (** revival instant the drop was decided at *)
  bd_deadline : int;  (** the chain's absolute end-to-end deadline *)
}
(** A message lost to a crashed bridge's bounded store-and-forward
    queue (capacity {!Topo.bridge.br_capacity}): structured loss, never
    silent — surfaced in the verdict and, via the chaos oracle, as a
    [Bridge_overflow] end-to-end verdict. *)

(** Degraded-mode operation events, in emission order (per bridge in
    declaration order, windows chronological). *)
type event =
  | Degraded of {
      dg_bridge : string;
      dg_segment : string;  (** the segment the bridge transmits on *)
      dg_from : int;
      dg_until : int;
    }  (** a bridge station's scheduled crash window began *)
  | Shed of {
      sh_bridge : string;
      sh_flow : string;
      sh_uid : int;
      sh_at : int;
      sh_criticality : int;
    }
      (** a held chain was dropped at revival because its remaining
          per-hop budget no longer decomposes ({!Rtnet_core.Decompose}
          slack-weighted) — shed lowest-criticality-first *)
  | Restored of { rs_bridge : string; rs_at : int; rs_backlog : int }
      (** the window closed; the bridge re-admitted and drains
          [rs_backlog] held messages under NP-EDF with a bounded
          catch-up burst *)

type verdict = {
  v_messages : int;  (** chains opened (origin arrivals of flow classes) *)
  v_delivered : int;  (** chains that completed every hop *)
  v_met : int;  (** delivered within the end-to-end deadline *)
  v_in_flight : int;
      (** undelivered chains whose deadline lies beyond the horizon *)
  v_shed : int;  (** chains shed under degraded-mode operation *)
  v_bridge_drops : bridge_drop list;  (** bridge-queue overflow losses *)
  v_misses : miss list;
      (** everything else, attributed (shed / dropped chains are
          accounted above, not counted as misses) *)
}

type seg_result = {
  sr_segment : string;
  sr_outcome : Rtnet_stats.Run.outcome;
}

type hop_record = {
  hr_index : int;  (** 0-based hop index on the flow's path *)
  hr_segment : string;
  hr_arrival : int;  (** arrival on the hop's segment, bit-times *)
  hr_start : int;  (** frame start on the wire *)
  hr_finish : int;  (** frame finish *)
  hr_source : int;  (** transmitting station on the segment *)
}
(** One completed hop of a chain — the raw material for cross-segment
    causal tracing ([Rtnet_obs.Causal]) and postmortem artifacts. *)

type chain_record = {
  cr_flow : string;
  cr_uid : int;  (** origin message uid *)
  cr_t0 : int;  (** origin arrival *)
  cr_deadline : int;  (** absolute end-to-end deadline *)
  cr_fault : string option;
      (** first bridge whose crash window held the chain *)
  cr_shed : bool;  (** shed under degraded-mode operation *)
  cr_dropped : bool;  (** lost to a bridge-queue overflow *)
  cr_hops : hop_record list;  (** completed hops, path order *)
}
(** The full per-hop story of one origin arrival.  [cr_hops] stops at
    the last completed hop — shorter than the flow's path for chains
    still in flight, shed, dropped, or stuck. *)

type result = {
  r_segments : seg_result list;  (** declaration order *)
  r_outcome : Rtnet_stats.Run.outcome;
      (** all segments merged ({!Rtnet_stats.Run.merge}) *)
  r_metrics : Rtnet_stats.Run.metrics;  (** scoreboard of the merge *)
  r_verdict : verdict;
  r_events : event list;  (** degraded-mode timeline (empty = no faults) *)
  r_chains : chain_record list;
      (** every chain, deterministic (trace) order *)
  r_fingerprint : string;
      (** digest of every segment's completion schedule, declaration
          order — equal across [~domains] settings iff sharding is
          transparent *)
}

val run :
  ?domains:int ->
  ?sink_for:(index:int -> segment:string -> Rtnet_telemetry.Sink.t) ->
  ?fault_seed:int ->
  Admit.t ->
  traces:(string * Rtnet_workload.Message.t list) list ->
  horizon:int ->
  (result, string) Stdlib.result
(** [run e ~traces ~horizon] simulates every segment over
    [\[0, horizon)].  [traces] carries one arrival trace per segment
    name, generated from the {b original} (declared) instances — the
    driver itself rewrites origin-class arrivals to the elaborated
    hop-0 classes and synthesizes the forwarded arrivals, so traces
    from elaborated instances would double-count.  [domains] (default
    1) caps the OCaml domains running one wavefront level concurrently;
    any value yields the same [r_fingerprint].  [sink_for] supplies a
    per-segment telemetry sink (index = declaration position); each
    sink is only ever touched by the one domain simulating its segment.

    Segments carrying a fault plan ({!Topo.segment.sg_fault}) run
    under a {!Rtnet_channel.Fault_plan} sampler seeded
    [Prng.derive fault_seed i] (declaration index [i], [fault_seed]
    defaulting to 0) — protocol-blind and independent of the traces.
    A crash window naming a bridge station additionally parks that
    bridge's store-and-forward queue: hand-offs becoming ready inside
    the window are held and drained at revival (NP-EDF order, bounded
    catch-up burst), overflowing ones dropped oldest-past-deadline
    first, and chains whose remaining budgets no longer decompose are
    shed — see {!event}.

    Configuration-level failures (a segment without a trace, a
    malformed cross-segment hand-off, a fault plan the sampler
    rejects) return [Error msg] — a diagnostic, not an exception.
    Protocol-violation exceptions ([Rtnet_mac.Harness.Mismatch],
    [Rtnet_core.Ddcr.Protocol_violation]) still propagate: they are
    run verdicts for the analysis layer, not configuration errors. *)

val run_seeded :
  ?domains:int ->
  ?sink_for:(index:int -> segment:string -> Rtnet_telemetry.Sink.t) ->
  ?fault_seed:int ->
  Admit.t ->
  seed:int ->
  horizon:int ->
  (result, string) Stdlib.result
(** [run_seeded e ~seed ~horizon] is {!run} on per-segment traces
    drawn from the declared instances with
    [Rtnet_util.Prng.derive seed i] (segment declaration index [i]) —
    one seed reproduces the whole federation.  [fault_seed] defaults
    to [Prng.derive seed 0xFA] (a branch disjoint from every trace
    stream), so faults too replay from the single run seed. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_event : Format.formatter -> event -> unit
