type result = {
  per_thread_mrps : float;
  total_rpcs : int;
  retransmits : int;
}

(* [cost] and [per_batch_cost_ns] (charged to each client once per batch)
   model the FaSST baseline's leaner datapath; eRPC runs use neither. *)
let run_mesh ?seed ?config ?cost ?trace ?(window = 60) ?(measure_ms = 4.0) ~per_batch_cost_ns
    ?(payload = Harness.Echo { req_size = 32; resp_size = 32 }) ~(cluster : Transport.Cluster.t)
    ~batch () =
  let register nx =
    match payload with
    | Harness.Echo { resp_size; _ } -> Harness.register_echo ~resp_size nx
    | Harness.Typed (codec, _) -> Harness.register_typed_echo codec nx
  in
  let d = Harness.deploy ?seed ?config ?cost ?trace cluster ~threads_per_host:1 ~register in
  let n = cluster.num_hosts in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  (* All-to-all sessions: thread i -> every other thread. *)
  let sessions =
    Array.init n (fun src ->
        Array.init (n - 1) (fun j ->
            let dst = if j < src then j else j + 1 in
            Erpc.Rpc.create_session d.rpcs.(src).(0) ~remote_host:dst ~remote_rpc_id:0 ()))
  in
  Harness.run_ms d 1.0 (* connect handshakes *);
  Array.iter
    (Array.iter (fun (s : Erpc.Session.session) ->
         if s.state <> Erpc.Session.Connected then failwith "session not connected"))
    sessions;
  let drivers =
    Array.init n (fun src ->
        Harness.make_driver ~payload ~batch ~per_batch_cost_ns ~rng:(Sim.Rng.split rng)
          ~rpc:d.rpcs.(src).(0) ~sessions:sessions.(src) ~window ())
  in
  Array.iter Harness.start_driver drivers;
  Harness.run_ms d 1.0 (* warmup *);
  let before = Harness.total_completed d in
  Harness.run_ms d measure_ms;
  let after = Harness.total_completed d in
  let total = after - before in
  {
    per_thread_mrps = float_of_int total /. float_of_int n /. (measure_ms *. 1e6) *. 1e3;
    total_rpcs = total;
    retransmits = Harness.sum_stats d (fun s -> s.Erpc.Rpc_stats.retransmits);
  }

let run = run_mesh ?cost:None ~per_batch_cost_ns:0 ?payload:None

(* FaSST is specialized: we model it as eRPC with CC off and the cost
   model's leaner FaSST profile. *)
let run_fasst ?seed ?measure_ms ~window ~(cluster : Transport.Cluster.t) ~batch () =
  let config =
    let base = Erpc.Config.of_cluster cluster in
    { base with opts = { base.opts with congestion_control = false } }
  in
  (* FaSST rings one doorbell per batch of B requests; the fixed cost
     amortizes with B, which is why its rate grows with batch size. *)
  run_mesh ?seed ~config ~cost:(Erpc.Cost_model.fasst cluster) ~window ?measure_ms
    ~per_batch_cost_ns:210 ~cluster ~batch ()

let factor_analysis ?seed () =
  let cluster = Transport.Cluster.cx4 ~nodes:11 () in
  let base = Erpc.Config.of_cluster cluster in
  let open Erpc.Config in
  (* Cumulative disabling, in Table 3's order. *)
  let steps =
    [
      ("Baseline (with congestion control)", Fun.id);
      ("Disable batched RTT timestamps", fun o -> { o with batched_timestamps = false });
      ("Disable Timely bypass", fun o -> { o with timely_bypass = false });
      ("Disable rate limiter bypass", fun o -> { o with rate_limiter_bypass = false });
      ("Disable multi-packet RQ", fun o -> { o with multi_packet_rq = false });
      ("Disable preallocated responses", fun o -> { o with preallocated_responses = false });
      ("Disable 0-copy request processing", fun o -> { o with zero_copy_rx = false });
    ]
  in
  let _, rows =
    List.fold_left
      (fun (opts, acc) (label, f) ->
        let opts = f opts in
        let config = { base with opts } in
        let r = run ?seed ~config ~cluster ~batch:3 () in
        (opts, (label, r) :: acc))
      (base.opts, [])
      steps
  in
  (* Typed-serialization rows: not cumulative with the steps above — each
     re-runs the full-optimization baseline with schema-driven requests
     (the fixed-width 24 B schema) under the named codec backend,
     isolating the datapath cost of typed (de)serialization. *)
  let codec_rows =
    let payload = Harness.Typed (Harness.schema_fixed, Harness.value_fixed) in
    List.map
      (fun (label, codec_backend) ->
        let config = { base with codec_backend } in
        (label, run_mesh ?seed ~config ~per_batch_cost_ns:0 ~payload ~cluster ~batch:3 ()))
      [
        ("Typed codec: compact backend", Codec.Compact);
        ("Typed codec: flat backend", Codec.Flat);
      ]
  in
  (* Transport rows: also non-cumulative — the full-optimization baseline
     re-run on each alternate datapath. The shm row colocates hosts in
     pairs, so the all-to-all mesh mixes intra-host (shared-memory ring)
     and cross-host (wire) sessions on every endpoint. *)
  let transport_rows =
    let rdma_config = { base with transport = Rdma_rc } in
    let shm_cluster =
      Transport.Cluster.colocate cluster [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ]; [ 8; 9 ] ]
    in
    let shm_config = of_cluster shm_cluster in
    [
      ( "Transport: RDMA RC (lossless)",
        run ?seed ~config:rdma_config ~cluster ~batch:3 () );
      ( "Transport: shm mixed local/remote",
        run ?seed ~config:shm_config ~cluster:shm_cluster ~batch:3 () );
    ]
  in
  List.rev_append rows (codec_rows @ transport_rows)
