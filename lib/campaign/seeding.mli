(** Deterministic per-cell seed derivation.

    Every campaign cell draws its seeds as a pure function of the
    spec's [base_seed] and the cell's coordinates, via
    {!Rtnet_util.Prng.derive} stream-splitting.  Two properties the
    runner depends on:

    - {b order independence}: a cell's seeds do not depend on which
      worker runs it or in what order, so [-j 1] and [-j N] campaigns
      produce bit-identical results;
    - {b protocol-blind traces}: the arrival-trace seed excludes the
      protocol coordinate, so every protocol in a configuration is
      measured on {e the same} message trace — protocols are compared
      like for like, exactly as the bench's E7 comparison does.

    The two seed families are domain-separated (distinct leading path
    component), so a trace seed can never collide with a protocol
    seed. *)

val trace_seed :
  base:int -> scenario:int -> variant:int -> replicate:int -> int
(** [trace_seed ~base ~scenario ~variant ~replicate] seeds
    [Instance.trace] for one configuration.  Protocol-independent. *)

val protocol_seed :
  base:int ->
  scenario:int ->
  variant:int ->
  replicate:int ->
  protocol:int ->
  int
(** [protocol_seed] seeds protocol-private randomness (BEB backoff
    draws) for one cell; channel faults come from {!fault_seed}. *)

val fault_seed : base:int -> scenario:int -> variant:int -> replicate:int -> int
(** [fault_seed] seeds a {!Rtnet_channel.Fault_plan} sampler.  Like
    {!trace_seed} it excludes the protocol coordinate: a fault plan is
    an environment property, so every protocol in a configuration faces
    {e the same} fault sample path.  Domain-separated from both other
    families (leading path component 2). *)
