(* PFC-style lossless fabrics (InfiniBand CX3): congested ports pause
   instead of dropping, so eRPC sees zero congestion loss — while the same
   traffic on a lossy fabric drops and recovers via go-back-N. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_pkt ?(size = 1_000) ~src ~dst () =
  Netsim.Packet.make ~src ~dst ~size_bytes:size ~flow_hash:0 Netsim.Packet.Empty

let test_lossless_port_never_drops () =
  let e = Sim.Engine.create () in
  let pool = Netsim.Buffer_pool.create ~capacity_bytes:2_000 ~alpha:100.0 in
  let delivered = ref 0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:0.008 ~extra_delay_ns:0 ~pool ~lossless:true
      ~sink:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 10 do
    ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()))
  done;
  check_int "no drops" 0 (Netsim.Port.dropped_packets port);
  check_bool "pauses happened instead" true (Netsim.Port.pause_events port > 0);
  Sim.Engine.run e;
  check_int "everything eventually delivered" 10 !delivered

let test_lossy_port_drops_same_load () =
  let e = Sim.Engine.create () in
  let pool = Netsim.Buffer_pool.create ~capacity_bytes:2_000 ~alpha:100.0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:0.008 ~extra_delay_ns:0 ~pool
      ~sink:(fun _ -> ())
      ()
  in
  for _ = 1 to 10 do
    ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()))
  done;
  check_bool "drops on the lossy port" true (Netsim.Port.dropped_packets port > 0)

(* The CX3 profile (InfiniBand) carries an incast without a single fabric
   drop; the same incast on CX4 without congestion control fills the
   dynamic buffer but also survives (buffer >> BDP — the paper's central
   observation). *)
let test_cx3_incast_has_zero_fabric_drops () =
  let cluster = Transport.Cluster.cx3 ~nodes:10 () in
  let config =
    let base = Erpc.Config.of_cluster ~credits:32 cluster in
    { base with opts = { base.opts with congestion_control = false } }
  in
  let d =
    Experiments.Harness.deploy ~config cluster ~threads_per_host:1
      ~register:(Experiments.Harness.register_echo ~resp_size:32)
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let drivers =
    List.init 9 (fun i ->
        let client = d.rpcs.(i + 1).(0) in
        let sess = Experiments.Harness.connect d client ~remote_host:0 ~remote_rpc_id:0 in
        Experiments.Harness.make_driver
          ~payload:(Experiments.Harness.Echo { req_size = 1024 * 1024; resp_size = 32 })
          ~rng:(Sim.Rng.split rng) ~rpc:client ~sessions:[| sess |] ~window:1 ())
  in
  List.iter Experiments.Harness.start_driver drivers;
  Experiments.Harness.run_ms d 10.0;
  check_int "no fabric drops on InfiniBand" 0 (Netsim.Network.fabric_drops (Erpc.Fabric.net d.fabric));
  check_int "no retransmissions" 0
    (List.fold_left ( + ) 0
       (List.init 9 (fun i -> (Erpc.Rpc.stats d.rpcs.(i + 1).(0)).Erpc.Rpc_stats.retransmits)));
  check_bool "and real progress was made" true (Experiments.Harness.total_completed d > 0)

let suite =
  [
    Alcotest.test_case "lossless port never drops" `Quick test_lossless_port_never_drops;
    Alcotest.test_case "lossy port drops same load" `Quick test_lossy_port_drops_same_load;
    Alcotest.test_case "CX3 incast: zero fabric drops" `Quick
      test_cx3_incast_has_zero_fabric_drops;
  ]
