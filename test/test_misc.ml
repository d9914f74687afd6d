(* Remaining corners: Nexus registry rules, the SM plane, wire hashing,
   engine counters. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_duplicate_handler_raises () =
  let fabric = Erpc.Fabric.create (Transport.Cluster.cx5 ~nodes:2 ()) in
  let nx = Erpc.Nexus.create fabric ~host:0 () in
  let h _ = () in
  Erpc.Nexus.register_handler nx ~req_type:9 ~mode:Erpc.Nexus.Dispatch h;
  Alcotest.check_raises "duplicate req_type"
    (Invalid_argument "Nexus.register_handler: req_type 9 already registered") (fun () ->
      Erpc.Nexus.register_handler nx ~req_type:9 ~mode:Erpc.Nexus.Worker h)

let test_duplicate_rpc_id_raises () =
  let fabric = Erpc.Fabric.create (Transport.Cluster.cx5 ~nodes:2 ()) in
  let nx = Erpc.Nexus.create fabric ~host:0 () in
  let _a = Erpc.Rpc.create nx ~rpc_id:3 in
  check_bool "duplicate rpc id" true
    (try
       ignore (Erpc.Rpc.create nx ~rpc_id:3);
       false
     with Invalid_argument _ -> true)

let test_handler_lookup () =
  let fabric = Erpc.Fabric.create (Transport.Cluster.cx5 ~nodes:2 ()) in
  let nx = Erpc.Nexus.create fabric ~host:0 () in
  Erpc.Nexus.register_handler nx ~req_type:4 ~mode:Erpc.Nexus.Worker (fun _ -> ());
  check_bool "registered" true
    (match Erpc.Nexus.handler nx 4 with Some (Erpc.Nexus.Worker, _) -> true | _ -> false);
  check_bool "unknown" true (Erpc.Nexus.handler nx 5 = None)

let test_sm_to_unknown_rpc_is_dropped () =
  let fabric = Erpc.Fabric.create (Transport.Cluster.cx5 ~nodes:2 ()) in
  let _nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let _nx1 = Erpc.Nexus.create fabric ~host:1 () in
  let client = Erpc.Rpc.create _nx0 ~rpc_id:0 in
  (* Host 1 has no Rpc 7: the connect request vanishes; the session stays
     pending and requests stay buffered rather than crashing. *)
  let connected = ref false in
  let sess =
    Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:7
      ~on_connect:(fun _ -> connected := true)
      ()
  in
  Sim.Engine.run_until (Erpc.Fabric.engine fabric) (Sim.Time.ms 5.0);
  check_bool "never connected" false !connected;
  check_bool "still pending" true (sess.Erpc.Session.state = Erpc.Session.Connect_pending)

let test_kill_host_idempotent () =
  let fabric = Erpc.Fabric.create (Transport.Cluster.cx5 ~nodes:2 ()) in
  let detections = ref 0 in
  Erpc.Fabric.on_host_failure fabric (fun _ -> incr detections);
  Erpc.Fabric.kill_host fabric 1;
  Erpc.Fabric.kill_host fabric 1;
  check_bool "dead" true (Erpc.Fabric.host_dead fabric 1);
  Sim.Engine.run_until (Erpc.Fabric.engine fabric) (Sim.Time.ms 20.0);
  check_int "single detection" 1 !detections

let test_flow_hash_properties () =
  let h1 = Erpc.Wire.flow_hash ~src_host:3 ~dst_host:7 ~sn:2 in
  let h2 = Erpc.Wire.flow_hash ~src_host:3 ~dst_host:7 ~sn:2 in
  check_int "deterministic" h1 h2;
  check_bool "non-negative" true (h1 >= 0);
  check_bool "sn-sensitive" true (h1 <> Erpc.Wire.flow_hash ~src_host:3 ~dst_host:7 ~sn:3)

let test_engine_counters () =
  let e = Sim.Engine.create () in
  for i = 1 to 5 do
    Sim.Engine.schedule e (i * 10) (fun () -> ())
  done;
  check_int "pending" 5 (Sim.Engine.pending e);
  check_int "processed" 0 (Sim.Engine.events_processed e);
  Sim.Engine.run e;
  check_int "all processed" 5 (Sim.Engine.events_processed e);
  check_int "none pending" 0 (Sim.Engine.pending e)

let test_schedule_now_runs () =
  let e = Sim.Engine.create () in
  let ran = ref false in
  Sim.Engine.schedule_after e 0 (fun () -> ran := true);
  Sim.Engine.run e;
  check_bool "zero-delay event" true !ran

let test_pkthdr_pp_and_data_bytes () =
  let hdr =
    {
      Erpc.Pkthdr.req_type = 1;
      msg_size = 2_500;
      dest_session = 0;
      pkt_type = Erpc.Pkthdr.Req;
      pkt_num = 2;
      req_num = 8;
      token = 0;
      ecn_echo = false;
    }
  in
  (* Third packet of a 2500-byte message at MTU 1024: 452 bytes. *)
  check_int "tail packet bytes" 452 (Erpc.Pkthdr.data_bytes hdr ~mtu:1024);
  check_int "ctrl packets carry no data" 0
    (Erpc.Pkthdr.data_bytes { hdr with pkt_type = Erpc.Pkthdr.Cr } ~mtu:1024);
  check_bool "pp renders" true
    (String.length (Format.asprintf "%a" Erpc.Pkthdr.pp hdr) > 0)

let suite =
  [
    Alcotest.test_case "duplicate handler raises" `Quick test_duplicate_handler_raises;
    Alcotest.test_case "duplicate rpc id raises" `Quick test_duplicate_rpc_id_raises;
    Alcotest.test_case "handler lookup" `Quick test_handler_lookup;
    Alcotest.test_case "SM to unknown rpc dropped" `Quick test_sm_to_unknown_rpc_is_dropped;
    Alcotest.test_case "kill host idempotent" `Quick test_kill_host_idempotent;
    Alcotest.test_case "flow hash" `Quick test_flow_hash_properties;
    Alcotest.test_case "engine counters" `Quick test_engine_counters;
    Alcotest.test_case "zero-delay schedule" `Quick test_schedule_now_runs;
    Alcotest.test_case "pkthdr helpers" `Quick test_pkthdr_pp_and_data_bytes;
  ]
