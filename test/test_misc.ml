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

let test_pkthdr_chunk_bytes () =
  (* A 2500-byte message at MTU 1024: two full chunks, a 452-byte tail,
     nothing past its end. *)
  let chunk = Erpc.Pkthdr.chunk_bytes ~mtu:1024 ~msg_size:2_500 in
  check_int "full chunk" 1024 (chunk 1);
  check_int "tail chunk bytes" 452 (chunk 2);
  check_int "past the end" 0 (chunk 3);
  check_int "empty message" 0 (Erpc.Pkthdr.chunk_bytes ~mtu:1024 ~msg_size:0 0)

let test_wire_make_stamps_header () =
  let pool = Erpc.Wire.create_pool (Netsim.Packet.create_table ()) in
  let data = Bytes.make 64 'x' in
  let make ~pkt_type ~pkt_num ~len =
    Erpc.Wire.make pool ~src_host:2 ~dst_host:5 ~dst_rpc:3 ~flow:11
      ~req_type:4 ~msg_size:2_500 ~dest_session:6 ~pkt_type ~pkt_num ~req_num:8 ~token:9 ~data
      ~off:16 ~len
  in
  let hdr_of pkt =
    match pkt.Netsim.Packet.body with
    | Erpc.Wire.Pkt p -> (p.dst_rpc, p.hdr, p.off, p.len)
    | _ -> Alcotest.fail "not a wire packet"
  in
  let p = make ~pkt_type:Erpc.Pkthdr.Req ~pkt_num:2 ~len:32 in
  let dst_rpc, hdr, off, len = hdr_of p in
  check_int "src" 2 p.Netsim.Packet.src;
  check_int "dst" 5 p.Netsim.Packet.dst;
  check_int "flow" 11 p.Netsim.Packet.flow_hash;
  check_int "wire size = payload + overhead" 92 p.Netsim.Packet.size_bytes;
  check_int "dst_rpc" 3 dst_rpc;
  check_int "slice off" 16 off;
  check_int "slice len" 32 len;
  check_bool "header fields" true
    (hdr
    = {
        Erpc.Pkthdr.req_type = 4;
        msg_size = 2_500;
        dest_session = 6;
        pkt_type = Erpc.Pkthdr.Req;
        pkt_num = 2;
        req_num = 8;
        token = 9;
      });
  check_bool "intact packet verifies" true (Erpc.Wire.verify p);
  Netsim.Packet.free p;
  let q = make ~pkt_type:Erpc.Pkthdr.Cr ~pkt_num:1 ~len:0 in
  let _, hdr', _, _ = hdr_of q in
  check_bool "pooled header rewritten in place" true (hdr' == hdr);
  check_bool "control packet type" true (hdr'.Erpc.Pkthdr.pkt_type = Erpc.Pkthdr.Cr);
  check_int "control packet pkt_num" 1 hdr'.Erpc.Pkthdr.pkt_num;
  check_int "control packet is header-only" 60 q.Netsim.Packet.size_bytes

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
    Alcotest.test_case "pkthdr helpers" `Quick test_pkthdr_chunk_bytes;
    Alcotest.test_case "wire make stamps header" `Quick test_wire_make_stamps_header;
  ]
