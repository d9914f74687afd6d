type result = {
  breakdowns : Obs.Anatomy.breakdown list;
  trace : Obs.Trace.t;
  predicted_wire_ns : int -> int;
}

let predictor (cluster : Transport.Cluster.t) =
  let cfg = cluster.net_config in
  fun size ->
    let ser = Sim.Time.of_bytes_at_gbps size cfg.link_gbps in
    (2 * (ser + cfg.cable_ns)) + cfg.switch_latency_ns

let run ?seed ?trace ?(samples = 32) ?(req_size = 32) ?(typed = false)
    ?(backend = Codec.Compact) ?(transport = `Raw_eth) () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let cluster =
    match transport with
    | `Shm -> Transport.Cluster.colocate cluster [ [ 0; 1 ] ]
    | `Raw_eth | `Rdma_rc -> cluster
  in
  let config = { (Erpc.Config.of_cluster cluster) with codec_backend = backend } in
  (* Room for every sample: an RPC leaves at most 64 records per request
     packet (33 for a one-packet typed echo). *)
  let trace =
    match trace with
    | Some tr -> tr
    | None ->
        let pkts = max 1 ((req_size + cluster.mtu - 1) / cluster.mtu) in
        Obs.Trace.create ~capacity:(64 * pkts * max 1 samples) ()
  in
  let config =
    match transport with
    | `Raw_eth | `Shm -> config
    | `Rdma_rc -> { config with Erpc.Config.transport = Erpc.Config.Rdma_rc }
  in
  let register nx =
    if typed then Harness.register_typed_echo Harness.schema_fixed nx
    else Harness.register_echo ~resp_size:32 nx
  in
  let d = Harness.deploy ?seed ~config ~trace cluster ~threads_per_host:1 ~register in
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  let payload =
    if typed then Harness.Typed (Harness.schema_fixed, Harness.value_fixed)
    else Harness.Echo { req_size; resp_size = max 32 req_size }
  in
  (* Strictly sequential: one request outstanding, the next issued only
     after the previous completes, so the network is quiet and every
     sampled latency decomposes against an idle fabric. *)
  Harness.start_driver
    (Harness.make_driver ~payload ~count:samples ~rpc:client ~sessions:[| sess |] ~window:1
       ());
  Harness.run_ms d (1.0 +. (0.05 *. float_of_int samples));
  let predicted_wire_ns = predictor cluster in
  let breakdowns = Obs.Anatomy.analyze ~wire_ns:predicted_wire_ns (Obs.Trace.events trace) in
  { breakdowns; trace; predicted_wire_ns }
