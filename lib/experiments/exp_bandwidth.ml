type point = {
  req_size : int;
  goodput_gbps : float;
  retransmits : int;
  server_tx_pkts : int;
}

let erpc_goodput ?(credits = 32) ?config ?(requests = 8) ?(loss = 0.) ?seed ?trace ~req_size
    () =
  let cluster = Transport.Cluster.cx5_ib100 () in
  let config =
    match config with Some c -> c | None -> Erpc.Config.of_cluster ~credits cluster
  in
  let d =
    Harness.deploy ?seed ?trace ~config cluster ~threads_per_host:1
      ~register:(Harness.register_echo ~resp_size:32)
  in
  Netsim.Network.set_loss_prob (Erpc.Fabric.net d.fabric) loss;
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  (* One warmup request; the measured window runs from its completion
     (when the first measured request is issued) to the last one's. *)
  let driver =
    Harness.make_driver
      ~payload:(Harness.Echo { req_size; resp_size = max 32 req_size })
      ~count:(requests + 1) ~rpc:client ~sessions:[| sess |] ~window:1 ()
  in
  Harness.start_driver driver;
  (* 8 MB at worst-case Table 4 loss rates can take seconds of simulated
     time per request. *)
  Harness.run_driver ~max_slices:2000 d driver ~slice_ms:10.0;
  let elapsed = Harness.driver_span driver in
  let bits = float_of_int (req_size * 8 * requests) in
  {
    req_size;
    goodput_gbps = (if elapsed <= 0 then 0. else bits /. float_of_int elapsed);
    retransmits = (Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits;
    server_tx_pkts = (Erpc.Rpc.stats d.rpcs.(1).(0)).Erpc.Rpc_stats.tx_pkts;
  }

let rdma_write_goodput ?seed ~req_size () =
  let requests = 8 in
  let cluster = Transport.Cluster.cx5_ib100 () in
  let engine = Sim.Engine.create ?seed () in
  let net = Transport.Cluster.build engine cluster in
  let ep0 = Rdma.Qp.create engine net ~host:0 cluster in
  let _ep1 = Rdma.Qp.create engine net ~host:1 cluster in
  (* One warmup write; the span runs from its completion to the last. *)
  let drv =
    Harness.driver ~engine ~slots:1
      (Closed { batch = 1; count = requests + 1 })
      (fun _ k ->
        Rdma.Qp.post_write ep0 ~dst:1 ~len:req_size ~completion:(fun () -> k Obs.Op.Ok_))
  in
  Harness.start_driver drv;
  Sim.Engine.run engine;
  let elapsed = Harness.driver_span drv in
  let bits = float_of_int (req_size * 8 * requests) in
  {
    req_size;
    goodput_gbps = (if elapsed <= 0 then 0. else bits /. float_of_int elapsed);
    retransmits = 0;
    server_tx_pkts = 0;
  }
