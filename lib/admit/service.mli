(** The admission service loop: drains a churn stream through the
    {!Engine} under overload protection, journaling every decision.

    Arrival model: requests land in back-to-back chunks of
    [sv_chunk]; within a chunk the backlog at position [pos] is the
    [n - pos] requests not yet decided.  The overload logic consults
    only quantities that are pure functions of the absolute request
    index, so a resumed run reproduces the exact shed/degrade pattern
    the crashed run would have produced.

    Overload protection is two-tier:
    - positions at or past [sv_capacity] are shed outright
      ([Overloaded] with a [retry_after] backlog hint);
    - a chunk of size ≥ [sv_high] starts {e degraded}: [Add]/[Modify]
      requests are shed (a [Remove] still runs — evictions relieve
      load) until the backlog drains to [sv_low].  The summary counts
      the Degraded and Restored transitions.

    A differential self-check ({!Engine.selfcheck}) runs on every
    decision under [sv_paranoid], or every [sv_selfcheck_every]-th
    decision otherwise; the first mismatch is reported in the
    summary. *)

type config = {
  sv_chunk : int;  (** requests arriving per chunk (1 = steady drip) *)
  sv_capacity : int;  (** hard queue bound; positions past it shed *)
  sv_high : int;  (** chunk size at which degraded mode engages *)
  sv_low : int;  (** backlog at which degraded mode releases *)
  sv_selfcheck_every : int;  (** sampled differential check; 0 = off *)
  sv_paranoid : bool;  (** differential check on every decision *)
  sv_snapshot_every : int;  (** snapshot cadence in decisions; 0 = off *)
}

val default : config
(** chunk 1, capacity 1024, high 768, low 256, selfcheck every 64,
    paranoid off, snapshot every 512. *)

val validate : config -> (unit, string) result

type summary = {
  sm_processed : int;
  sm_accepted : int;
  sm_rejected : (string * int) list;  (** rejections per code, sorted *)
  sm_degraded : int;  (** Degraded transitions *)
  sm_restored : int;  (** Restored transitions *)
  sm_selfchecks : int;  (** differential checks run *)
  sm_mismatch : string option;  (** first incremental/full divergence *)
  sm_flows : int;  (** admitted set size after the run *)
}

val summary_to_json : summary -> Rtnet_util.Json.t

val run :
  ?log:out_channel ->
  ?journal:(Journal.record -> unit) ->
  ?snapshot:(seq:int -> Rtnet_util.Json.t -> unit) ->
  config ->
  Engine.t ->
  start:int ->
  Request.t list ->
  summary
(** [run config engine ~start requests] decides [requests] in order;
    [start] is the absolute index of the first (non-zero when
    resuming).  Per decision, in order: decide → [journal] callback →
    [log] line ({!Journal.record_line}) → self-check → [snapshot]
    callback.  The journal callback owns durability (and is where the
    crash-injection hook lives); [snapshot] receives the sequence
    number {e after} the covered decision. *)
