(** Cross-segment causal tracing: Perfetto flow events over chains.

    The federated driver reports every chain's completed hops
    ({!Rtnet_topology.Driver.chain_record}); each hop's frame span is
    already in the per-segment recorder timeline (track
    [(seg pid, 10 + source)], covering [\[hr_start, hr_finish)]).
    [stitch] adds the arrows: one flow chain per multi-hop message
    ([ph "s"] at the first hop's frame, ["t"] at intermediate hops,
    ["f"] at the last), plus a ["handoff"] instant on the downstream
    segment's bridge track at each hop arrival — so Perfetto renders a
    message's whole end-to-end journey, bridge queues included, as one
    connected chain. *)

val stitch :
  into:Rtnet_telemetry.Trace_event.t ->
  seg_pid:(segment:string -> int) ->
  chains:Rtnet_topology.Driver.chain_record list ->
  int
(** [stitch ~into ~seg_pid ~chains] appends flow events (and hand-off
    instants) to [into] for every chain with at least two completed
    hops, binding them to the frame spans of the per-segment recorder
    traces (merge [into] with those traces via
    {!Rtnet_telemetry.Trace_event.merge_json}).  [seg_pid] maps a
    segment name to the pid its recorder used (the
    [2 * declaration index] convention).  Flow ids are the chain's
    position in [chains], so the output is deterministic.  Returns the
    number of chains stitched. *)
