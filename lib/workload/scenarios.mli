(** Canned HRTDM instances for the application domains the paper's
    introduction motivates: distributed interactive multimedia /
    videoconferencing, surveillance (air traffic control) and on-line
    transactions (stock markets), plus synthetic instances for sweeps.

    All times are bit-times of the instance's medium (1 bit-time = 1 ns
    on Gigabit Ethernet). *)

val videoconference : stations:int -> Instance.t
(** [videoconference ~stations] — each station sends periodic video
    frames (12 kbit every 33 ms, 10 ms deadline), audio samples
    (1.6 kbit every 20 ms, 5 ms deadline) and sporadic control traffic,
    over half-duplex Gigabit Ethernet. *)

val air_traffic_control : radars:int -> Instance.t
(** [air_traffic_control ~radars] — surveillance: each radar head sends
    sporadic track updates (2 per 50 ms window, 20 ms deadline) and
    rare but urgent conflict alerts (5 ms deadline); one coordination
    source broadcasts periodic situation summaries. *)

val trading : gateways:int -> Instance.t
(** [trading ~gateways] — on-line transactions: each gateway emits
    bursts of orders (up to 20 per 1 ms window, 0.5 ms deadline) plus a
    periodic heartbeat; the aggregate is deliberately bursty. *)

val atm_fabric : ports:int -> Instance.t
(** [atm_fabric ~ports] — cell traffic on a bus internal to an ATM
    switch ({!Rtnet_channel.Phy.atm_bus}): fixed-size cells, per-port CBR-like
    streams with cell-scale deadlines and an arbitrated medium. *)

val skewed : sources:int -> heavy_fraction:float -> Instance.t
(** [skewed ~sources ~heavy_fraction] — one "heavy" gateway carrying
    [heavy_fraction] of the total offered load in dense bursts while
    the remaining sources trickle light periodic traffic.  Exercises
    static-index allocation policies (the heavy source profits from
    owning more leaves).
    @raise Invalid_argument unless [sources >= 2] and
    [0 < heavy_fraction < 1]. *)

val manufacturing : cells:int -> Instance.t
(** [manufacturing ~cells] — discrete manufacturing (the CSMA/DCR
    deployments of Section 5): each production cell carries periodic
    PLC scan cycles with millisecond deadlines, sporadic emergency-stop
    signals with very tight deadlines, and bulky sporadic vision-system
    transfers; one supervisory source broadcasts schedules.  The
    aggregate is deliberately heavy for one bus — the dual-bus example
    splits it. *)

val uniform :
  sources:int ->
  classes_per_source:int ->
  load:float ->
  deadline_windows:float ->
  Instance.t
(** [uniform ~sources ~classes_per_source ~load ~deadline_windows] —
    synthetic instance on Gigabit Ethernet: identical 8-kbit classes
    whose windows are sized so the peak offered load is [load]
    (fraction of capacity) and whose relative deadline is
    [deadline_windows · w].  Used for load sweeps.
    @raise Invalid_argument if [load <= 0.] or parameters are
    non-positive. *)

val all : (string * Instance.t) list
(** [all] is a representative list of named instances (small sizes)
    used by tests and benches. *)

val of_kind :
  kind:string ->
  size:int ->
  load:float ->
  deadline_windows:float ->
  (Instance.t, string) result
(** [of_kind ~kind ~size ~load ~deadline_windows] decodes a scenario
    by the name campaign specs, topology segments and the CLIs use:
    [videoconference], [atc], [trading], [atm], [manufacturing],
    [skewed] (heavy fraction 0.7) or [uniform] (two classes per
    source; only it reads [load] and [deadline_windows]), each with
    [size] stations.  An unknown kind or a size the builder rejects is
    an [Error]. *)
