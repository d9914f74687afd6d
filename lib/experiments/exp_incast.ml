type row = {
  degree : int;
  cc : bool;
  total_gbps : float;
  rtt_p50_us : float;
  rtt_p99_us : float;
  switch_buffer_peak_bytes : int;
  retransmits : int;
}

let victim = 0

let setup ?seed ?trace ?(credits = 32) ~degree ~cc () =
  (* Enough hosts for the victim plus [degree] clients; the CX4 profile
     spreads them over 5 ToRs, so most flows cross the spine and converge
     on the victim's ToR downlink. *)
  let nodes = max 16 (degree + 1) in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let config =
    let base = Erpc.Config.of_cluster ~credits cluster in
    { base with opts = { base.opts with congestion_control = cc } }
  in
  let d =
    Harness.deploy ?seed ?trace ~config cluster ~threads_per_host:1
      ~register:(fun nx ->
        Harness.register_echo ~resp_size:32 nx;
        (* Full-size echo used by the background latency-sensitive RPCs. *)
        Harness.register_echo ~req_type:2 nx)
  in
  d

(* Hosts 1..degree each keep one 8 MB request in flight to the victim. *)
let incast_drivers (d : Harness.deployment) rng ~degree =
  List.init degree (fun i ->
      let client = d.rpcs.(i + 1).(0) in
      let sess = Harness.connect d client ~remote_host:victim ~remote_rpc_id:0 in
      Harness.make_driver
        ~payload:(Harness.Echo { req_size = 8 * 1024 * 1024; resp_size = 32 })
        ~rng:(Sim.Rng.split rng) ~rpc:client ~sessions:[| sess |] ~window:1 ())

let run ?seed ?trace ?credits ?(warmup_ms = 20.0) ?(measure_ms = 40.0) ~degree ~cc () =
  let d = setup ?seed ?trace ?credits ~degree ~cc () in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let rtt_hist = Stats.Hist.create () in
  let drivers = incast_drivers d rng ~degree in
  List.iter Harness.start_driver drivers;
  Harness.run_ms d warmup_ms;
  (* Collect client-side per-packet RTTs only during the measured window. *)
  List.iteri
    (fun i _ -> Erpc.Rpc.set_rtt_probe d.rpcs.(i + 1).(0) (Stats.Hist.record rtt_hist))
    drivers;
  let port = Netsim.Network.tor_downlink_port (Erpc.Fabric.net d.fabric) ~host:victim in
  let bytes0 = Netsim.Port.tx_bytes port in
  Harness.run_ms d measure_ms;
  let bytes1 = Netsim.Port.tx_bytes port in
  (* The deepest any switch buffer pool got, from the metrics registry. *)
  let switch_buffer_peak_bytes =
    int_of_float (Obs.Metrics.max_gauge (Sim.Engine.metrics engine) ~name:"switch.buffer_max")
  in
  let retransmits = Harness.sum_stats d (fun s -> s.Erpc.Rpc_stats.retransmits) in
  {
    degree;
    cc;
    total_gbps = float_of_int ((bytes1 - bytes0) * 8) /. (measure_ms *. 1e6);
    rtt_p50_us = Harness.us_at rtt_hist 50.;
    rtt_p99_us = Harness.us_at rtt_hist 99.;
    switch_buffer_peak_bytes;
    retransmits;
  }

type bg_result = {
  bg_degree : int;
  bg_p50_us : float;
  bg_p99_us : float;
}

let with_background ?seed ?(measure_ms = 40.0) ~degree () =
  let d = setup ?seed ~degree ~cc:true () in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let incast = incast_drivers d rng ~degree in
  (* Latency-sensitive pairs: non-victim nodes (1,2), (3,4), ... exchange
     64 kB request/response RPCs, one outstanding. *)
  let lat_hist = Stats.Hist.create () in
  let n = Array.length d.rpcs in
  let bg_drivers =
    let rec pairs i acc =
      if i + 1 >= n then acc
      else
        let client = d.rpcs.(i).(0) in
        let sess = Harness.connect d client ~remote_host:(i + 1) ~remote_rpc_id:0 in
        let drv =
          Harness.make_driver ~latencies:lat_hist
            ~payload:(Harness.Echo { req_size = 64 * 1024; resp_size = 64 * 1024 })
            ~req_type:2 ~rng:(Sim.Rng.split rng) ~rpc:client ~sessions:[| sess |] ~window:1
            ()
        in
        pairs (i + 2) (drv :: acc)
    in
    pairs 1 []
  in
  List.iter Harness.start_driver incast;
  List.iter Harness.start_driver bg_drivers;
  Harness.run_ms d 20.0;
  Stats.Hist.clear lat_hist;
  Harness.run_ms d measure_ms;
  {
    bg_degree = degree;
    bg_p50_us = Harness.us_at lat_hist 50.;
    bg_p99_us = Harness.us_at lat_hist 99.;
  }
