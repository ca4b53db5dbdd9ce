module Phy = Rtnet_channel.Phy

(* Time helpers: the Gigabit media run at 1 ns per bit-time. *)
let us = 1_000
let ms = 1_000_000

let cls ~id ~name ~source ~bits ~deadline ~burst ~window =
  {
    Message.cls_id = id;
    cls_name = name;
    cls_source = source;
    cls_bits = bits;
    cls_deadline = deadline;
    cls_burst = burst;
    cls_window = window;
  }

let videoconference ~stations =
  if stations < 1 then invalid_arg "Scenarios.videoconference";
  let per_station s =
    [
      ( cls ~id:(3 * s) ~name:(Printf.sprintf "video%d" s) ~source:s
          ~bits:12_000 ~deadline:(10 * ms) ~burst:1 ~window:(33 * ms),
        Arrival.Periodic { offset = s * 100 * us } );
      ( cls ~id:((3 * s) + 1) ~name:(Printf.sprintf "audio%d" s) ~source:s
          ~bits:1_600 ~deadline:(5 * ms) ~burst:1 ~window:(20 * ms),
        Arrival.Periodic { offset = s * 50 * us } );
      ( cls ~id:((3 * s) + 2) ~name:(Printf.sprintf "ctl%d" s) ~source:s
          ~bits:800 ~deadline:(50 * ms) ~burst:2 ~window:(100 * ms),
        Arrival.Sporadic { mean_slack = 1.0 } );
    ]
  in
  Instance.create_exn ~name:"videoconference" ~phy:Phy.gigabit_ethernet
    ~num_sources:stations
    (List.concat_map per_station (List.init stations Fun.id))

let air_traffic_control ~radars =
  if radars < 1 then invalid_arg "Scenarios.air_traffic_control";
  let per_radar r =
    [
      ( cls ~id:(2 * r) ~name:(Printf.sprintf "track%d" r) ~source:r
          ~bits:6_400 ~deadline:(20 * ms) ~burst:2 ~window:(50 * ms),
        Arrival.Sporadic { mean_slack = 0.5 } );
      ( cls ~id:((2 * r) + 1) ~name:(Printf.sprintf "alert%d" r) ~source:r
          ~bits:1_200 ~deadline:(5 * ms) ~burst:1 ~window:(100 * ms),
        Arrival.Poisson { intensity = 0.3 } );
    ]
  in
  let coordination =
    ( cls ~id:(2 * radars) ~name:"situation" ~source:0 ~bits:16_000
        ~deadline:(40 * ms) ~burst:1 ~window:(100 * ms),
      Arrival.Periodic { offset = 0 } )
  in
  Instance.create_exn ~name:"air-traffic-control" ~phy:Phy.gigabit_ethernet
    ~num_sources:radars
    (coordination :: List.concat_map per_radar (List.init radars Fun.id))

let trading ~gateways =
  if gateways < 1 then invalid_arg "Scenarios.trading";
  let per_gateway g =
    [
      ( cls ~id:(2 * g) ~name:(Printf.sprintf "orders%d" g) ~source:g
          ~bits:4_000 ~deadline:(500 * us) ~burst:20 ~window:ms,
        Arrival.Staggered_burst
          { phase = float_of_int g /. float_of_int (2 * gateways) } );
      ( cls ~id:((2 * g) + 1) ~name:(Printf.sprintf "hb%d" g) ~source:g
          ~bits:640 ~deadline:(2 * ms) ~burst:1 ~window:(10 * ms),
        Arrival.Periodic { offset = g * 37 * us } );
    ]
  in
  Instance.create_exn ~name:"trading" ~phy:Phy.gigabit_ethernet
    ~num_sources:gateways
    (List.concat_map per_gateway (List.init gateways Fun.id))

let atm_fabric ~ports =
  if ports < 1 then invalid_arg "Scenarios.atm_fabric";
  (* 48-byte payloads; deadlines a few cell times (424 bit-times per
     cell on the internal bus). *)
  let per_port p =
    [
      ( cls ~id:(2 * p) ~name:(Printf.sprintf "cbr%d" p) ~source:p ~bits:384
          ~deadline:(40 * 424) ~burst:1
          ~window:(424 * 2 * ports),
        Arrival.Periodic { offset = p * 424 } );
      ( cls ~id:((2 * p) + 1) ~name:(Printf.sprintf "vbr%d" p) ~source:p
          ~bits:384 ~deadline:(80 * 424) ~burst:4
          ~window:(424 * 16 * ports),
        Arrival.Poisson { intensity = 0.7 } );
    ]
  in
  Instance.create_exn ~name:"atm-fabric" ~phy:Phy.atm_bus ~num_sources:ports
    (List.concat_map per_port (List.init ports Fun.id))

let skewed ~sources ~heavy_fraction =
  if sources < 2 then invalid_arg "Scenarios.skewed: sources < 2";
  if heavy_fraction <= 0. || heavy_fraction >= 1. then
    invalid_arg "Scenarios.skewed: heavy_fraction out of (0, 1)";
  let bits = 4_000 in
  let on_wire = Phy.tx_bits Phy.gigabit_ethernet bits in
  (* Total offered load ~0.5; the heavy source bursts its share into
     1 ms windows, the light ones spread theirs over 10 ms. *)
  let total = 0.5 in
  let heavy_load = total *. heavy_fraction in
  let light_load = total *. (1. -. heavy_fraction) /. float_of_int (sources - 1) in
  let heavy_window = ms in
  let heavy_burst =
    max 1 (int_of_float (heavy_load *. float_of_int heavy_window /. float_of_int on_wire))
  in
  let light_window = 10 * ms in
  let light_burst =
    max 1 (int_of_float (light_load *. float_of_int light_window /. float_of_int on_wire))
  in
  let heavy =
    ( cls ~id:0 ~name:"heavy" ~source:0 ~bits ~deadline:(2 * ms)
        ~burst:heavy_burst ~window:heavy_window,
      Arrival.Greedy_burst )
  in
  let light i =
    ( cls ~id:i ~name:(Printf.sprintf "light%d" i) ~source:i ~bits
        ~deadline:(5 * ms) ~burst:light_burst ~window:light_window,
      Arrival.Periodic { offset = i * 113 * us } )
  in
  Instance.create_exn ~name:"skewed" ~phy:Phy.gigabit_ethernet
    ~num_sources:sources
    (heavy :: List.map light (List.init (sources - 1) (fun i -> i + 1)))

let manufacturing ~cells =
  if cells < 1 then invalid_arg "Scenarios.manufacturing";
  let per_cell c =
    [
      ( cls ~id:(3 * c) ~name:(Printf.sprintf "plc%d" c) ~source:c
          ~bits:6_000 ~deadline:(2 * ms) ~burst:2 ~window:(2 * ms),
        Arrival.Greedy_burst );
      ( cls ~id:(3 * c + 1) ~name:(Printf.sprintf "estop%d" c) ~source:c
          ~bits:512 ~deadline:(1 * ms) ~burst:1 ~window:(5 * ms),
        Arrival.Poisson { intensity = 0.4 } );
      ( cls ~id:(3 * c + 2) ~name:(Printf.sprintf "vision%d" c) ~source:c
          ~bits:60_000 ~deadline:(10 * ms) ~burst:1 ~window:(5 * ms),
        Arrival.Sporadic { mean_slack = 0.3 } );
    ]
  in
  let supervisor =
    ( cls ~id:(3 * cells) ~name:"schedule" ~source:0 ~bits:20_000
        ~deadline:(10 * ms) ~burst:1 ~window:(10 * ms),
      Arrival.Periodic { offset = 0 } )
  in
  Instance.create_exn ~name:"manufacturing" ~phy:Phy.gigabit_ethernet
    ~num_sources:cells
    (supervisor :: List.concat_map per_cell (List.init cells Fun.id))

let uniform ~sources ~classes_per_source ~load ~deadline_windows =
  if sources < 1 || classes_per_source < 1 then
    invalid_arg "Scenarios.uniform: non-positive sizes";
  if load <= 0. then invalid_arg "Scenarios.uniform: non-positive load";
  if deadline_windows <= 0. then
    invalid_arg "Scenarios.uniform: non-positive deadline";
  let bits = 8_000 in
  let on_wire = Phy.tx_bits Phy.gigabit_ethernet bits in
  let n = sources * classes_per_source in
  (* Peak load = n · a · l' / w = load, with a = 1. *)
  let window =
    max 1 (int_of_float (float_of_int (n * on_wire) /. load))
  in
  let deadline =
    max 1 (int_of_float (deadline_windows *. float_of_int window))
  in
  let mk i =
    let s = i mod sources in
    ( cls ~id:i ~name:(Printf.sprintf "u%d" i) ~source:s ~bits ~deadline
        ~burst:1 ~window,
      Arrival.Greedy_burst )
  in
  Instance.create_exn ~name:(Printf.sprintf "uniform-%.2f" load)
    ~phy:Phy.gigabit_ethernet ~num_sources:sources
    (List.map mk (List.init n Fun.id))

let all =
  [
    ("videoconference", videoconference ~stations:6);
    ("air-traffic-control", air_traffic_control ~radars:5);
    ("trading", trading ~gateways:4);
    ("atm-fabric", atm_fabric ~ports:4);
    ("manufacturing", manufacturing ~cells:4);
    ("skewed", skewed ~sources:6 ~heavy_fraction:0.6);
    ( "uniform-0.3",
      uniform ~sources:8 ~classes_per_source:2 ~load:0.3 ~deadline_windows:2.0
    );
  ]

let of_kind ~kind ~size ~load ~deadline_windows =
  match
    match kind with
    | "videoconference" -> videoconference ~stations:size
    | "atc" -> air_traffic_control ~radars:size
    | "trading" -> trading ~gateways:size
    | "atm" -> atm_fabric ~ports:size
    | "manufacturing" -> manufacturing ~cells:size
    | "skewed" -> skewed ~sources:size ~heavy_fraction:0.7
    | "uniform" ->
      uniform ~sources:size ~classes_per_source:2 ~load ~deadline_windows
    | other -> failwith (Printf.sprintf "unknown scenario %S" other)
  with
  | inst -> Ok inst
  | exception (Failure e | Invalid_argument e) -> Error e
