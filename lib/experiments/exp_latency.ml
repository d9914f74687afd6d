type row = {
  cluster : string;
  rdma_read_us : float;
  erpc_us : float;
  erpc_p99_us : float;
}

let measure_erpc ?seed ?(samples = 2_000) cluster =
  let d = Harness.deploy ?seed cluster ~threads_per_host:1 ~register:Harness.register_echo in
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  let hist = Stats.Hist.create () in
  (* One outstanding RPC at a time: pure latency. *)
  let driver =
    Harness.make_driver ~latencies:hist ~count:samples ~rpc:client ~sessions:[| sess |]
      ~window:1 ()
  in
  Harness.start_driver driver;
  Harness.run_driver d driver ~slice_ms:1.0;
  hist

let measure_rdma ?seed ?(samples = 2_000) (cluster : Transport.Cluster.t) =
  let engine = Sim.Engine.create ?seed () in
  let net = Transport.Cluster.build engine cluster in
  let cfg = Rdma.Qp.default_config cluster in
  let ep0 = Rdma.Qp.create engine net ~host:0 cfg in
  let _ep1 = Rdma.Qp.create engine net ~host:1 cfg in
  let drv =
    Harness.driver ~engine ~slots:1
      (Closed { batch = 1; count = samples })
      (fun _ k -> Rdma.Qp.post_read ep0 ~dst:1 ~len:32 ~completion:(fun () -> k Obs.Op.Ok_))
  in
  Harness.start_driver drv;
  Sim.Engine.run engine;
  (Harness.driver_tally drv).lat.(0)

let measure ?seed ?samples cluster =
  let erpc_hist = measure_erpc ?seed ?samples cluster in
  let rdma_hist = measure_rdma ?seed ?samples cluster in
  {
    cluster = cluster.name;
    rdma_read_us = Harness.us_at rdma_hist 50.;
    erpc_us = Harness.us_at erpc_hist 50.;
    erpc_p99_us = Harness.us_at erpc_hist 99.;
  }
