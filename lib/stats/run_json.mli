(** JSON codecs for run results.

    The campaign runner ([rtnet.campaign]) persists per-cell
    {!Run.metrics} (and the channel counters they were computed from)
    into [BENCH_*.json] files and checkpoint journals, and the
    perf-regression gate decodes them back.  Encoding is canonical:
    fixed key order, so the same value always serializes to the same
    bytes (see {!Rtnet_util.Json}).

    [metrics] and [channel stats] round-trip exactly.  A full
    {!Run.outcome} is encodable for dumps and external tooling, with
    messages flattened to [(uid, class id, arrival, deadline)] — the
    class table needed to rebuild [Message.t] values is not embedded,
    so the outcome codec is encode-only. *)

val metrics_to_json : Run.metrics -> Rtnet_util.Json.t
val metrics_of_json : Rtnet_util.Json.t -> (Run.metrics, string) result
(** Exact round-trip: [metrics_of_json (metrics_to_json m) = Ok m]. *)

val channel_stats_to_json : Rtnet_channel.Channel.stats -> Rtnet_util.Json.t

val channel_stats_of_json :
  Rtnet_util.Json.t -> (Rtnet_channel.Channel.stats, string) result

val outcome_to_json : Run.outcome -> Rtnet_util.Json.t
(** [outcome_to_json o] renders the whole outcome: protocol, horizon,
    completions as [{uid, cls, src, arrival, deadline, start, finish}],
    unfinished/dropped as [{uid, cls, arrival, deadline}], the
    channel counters ([null] if no medium was simulated) and the
    fault-plan degradation counters ([null] for fault-free runs). *)

val outcome_digest : Run.outcome -> Digest.t
(** [outcome_digest o] is [Digest.string (Json.to_string
    (outcome_to_json o))], computed one completion at a time, without
    the whole tree or a second copy of its bytes. *)
