(* Tests for the NIC model: RX descriptors, multi-packet RQ amortization,
   unsignaled TX + flush, RX ring notification, FIFO-preserving jitter,
   and RDMA RC mode's connection-cache TX stall and drop-free RX. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let two_host_net e =
  let cfg =
    { Netsim.Network.default_config with topology = Netsim.Network.Single_switch { hosts = 2 } }
  in
  Netsim.Network.create e cfg

let mk_pkt ?(size = 100) ~src ~dst () =
  Netsim.Packet.make ~src ~dst ~size_bytes:size ~flow_hash:0 Netsim.Packet.Empty

let test_rx_ring_and_poll () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create e net ~host:1 Nic.default_config in
  Netsim.Network.attach net ~host:1 ~rx:(fun pkt -> Nic.receive nic pkt);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  for _ = 1 to 5 do
    Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ())
  done;
  Sim.Engine.run e;
  check_int "ring depth" 5 (Nic.rx_ring_depth nic);
  let polled = ref 0 in
  let n = Nic.rx_burst nic ~max:3 (fun _ -> incr polled) in
  check_int "poll batch" 3 n;
  check_int "callback per packet" 3 !polled;
  check_int "remaining" 2 (Nic.rx_ring_depth nic);
  check_int "rx stat" 5 (Nic.rx_packets nic)

(* The same 5 arrivals into a 3-descriptor RQ: raw Ethernet drops the
   excess, RC mode (link-level flow control) delivers all of them. *)
let rq_exhaustion ?conn_cache () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create ?conn_cache e net ~host:1 { Nic.default_config with rq_size = 3 } in
  Netsim.Network.attach net ~host:1 ~rx:(fun pkt -> Nic.receive nic pkt);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  for _ = 1 to 5 do
    Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ())
  done;
  Sim.Engine.run e;
  (e, net, nic)

let test_rq_exhaustion_drops () =
  let e, net, nic = rq_exhaustion () in
  check_int "3 delivered" 3 (Nic.rx_ring_depth nic);
  check_int "2 dropped with empty RQ" 2 (Nic.rx_dropped nic);
  (* Replenishing restores delivery. *)
  ignore (Nic.replenish_rx nic 3);
  Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ());
  Sim.Engine.run e;
  check_int "delivered after replenish" 4 (Nic.rx_ring_depth nic)

let test_rc_rq_exhaustion_no_drops () =
  let _, _, nic = rq_exhaustion ~conn_cache:(Nic.Conn_cache.create_default ()) () in
  check_int "RC: no drops" 0 (Nic.rx_dropped nic);
  check_int "RC: all 5 polled" 5 (Nic.rx_burst nic ~max:10 (fun _ -> ()))

let test_multi_packet_rq_amortization () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let mp =
    Nic.create e net ~host:0
      { Nic.default_config with multi_packet_rq = true; multi_packet_rq_stride = 512 }
  in
  let plain = Nic.create e net ~host:1 { Nic.default_config with multi_packet_rq = false } in
  (* Multi-packet RQ: cost charged once per 512 buffers. *)
  let cost_mp = ref 0 and cost_plain = ref 0 in
  for _ = 1 to 1_024 do
    cost_mp := !cost_mp + Nic.replenish_rx mp 1;
    cost_plain := !cost_plain + Nic.replenish_rx plain 1
  done;
  let unit = Nic.default_config.rq_replenish_unit_ns in
  check_int "amortized: 2 descriptor posts" (2 * unit) !cost_mp;
  check_int "per-packet posts" (1_024 * unit) !cost_plain

let test_unsignaled_tx_and_flush () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create e net ~host:0 { Nic.default_config with tx_latency_ns = 400 } in
  Netsim.Network.attach net ~host:1 ~rx:(fun _ -> ());
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  check_int "flush on empty queue costs only the fixed overhead"
    Nic.default_config.tx_flush_ns (Nic.flush_time_ns nic);
  Nic.tx_burst nic ~at:(Sim.Engine.now e) (mk_pkt ~src:0 ~dst:1 ());
  Nic.tx_burst nic ~at:(Sim.Engine.now e) (mk_pkt ~src:0 ~dst:1 ());
  check_int "two DMAs pending" 2 (Nic.tx_pending nic);
  (* Flush must wait for the last pending DMA plus the fixed cost. *)
  check_int "flush waits for DMA" (400 + Nic.default_config.tx_flush_ns) (Nic.flush_time_ns nic);
  Sim.Engine.run e;
  check_int "drained" 0 (Nic.tx_pending nic)

let test_tx_posted_ahead () =
  (* A descriptor posted for a future entry time is not pending, and
     costs a flush nothing, until that time. *)
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create e net ~host:0 { Nic.default_config with tx_latency_ns = 400 } in
  Netsim.Network.attach net ~host:1 ~rx:(fun _ -> ());
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  let flush = Nic.default_config.tx_flush_ns in
  Nic.tx_burst nic ~at:0 (mk_pkt ~src:0 ~dst:1 ());
  Nic.tx_burst nic ~at:1_000 (mk_pkt ~src:0 ~dst:1 ());
  check_int "only the entered DMA is pending" 1 (Nic.tx_pending nic);
  check_int "flush waits for the entered DMA only" (400 + flush) (Nic.flush_time_ns nic);
  let seen = ref [] in
  Sim.Engine.schedule e 1_000 (fun () ->
      seen := (Nic.tx_pending nic, Nic.flush_time_ns nic) :: !seen);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int))) "at its entry time it counts"
    [ (1, 400 + flush) ] !seen;
  check_int "drained" 0 (Nic.tx_pending nic)

let test_rx_notify_fires_on_empty_ring_only () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create e net ~host:1 Nic.default_config in
  Netsim.Network.attach net ~host:1 ~rx:(fun pkt -> Nic.receive nic pkt);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  let notifies = ref 0 in
  Nic.set_rx_notify nic (fun () -> incr notifies);
  for _ = 1 to 4 do
    Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ())
  done;
  Sim.Engine.run e;
  check_int "one notify for the burst" 1 !notifies;
  ignore (Nic.rx_burst nic ~max:10 (fun _ -> ()));
  Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ());
  Sim.Engine.run e;
  check_int "notify again after drain" 2 !notifies

let test_jitter_preserves_fifo () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic = Nic.create e net ~host:1 { Nic.default_config with rx_jitter_ns = 5_000 } in
  Netsim.Network.attach net ~host:1 ~rx:(fun pkt -> Nic.receive nic pkt);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  (* Tag packets with distinct sizes to identify them. *)
  for i = 1 to 50 do
    Netsim.Network.send net (mk_pkt ~size:(100 + i) ~src:0 ~dst:1 ())
  done;
  Sim.Engine.run e;
  let sizes = ref [] in
  ignore (Nic.rx_burst nic ~max:100 (fun p -> sizes := p.Netsim.Packet.size_bytes :: !sizes));
  let sizes = List.rev !sizes in
  Alcotest.(check (list int)) "FIFO under jitter" (List.init 50 (fun i -> 101 + i)) sizes

(* An RC-mode sender on host 0; returns the arrival log at host 1 as
   (time, size) pairs, newest first. *)
let rc_sender () =
  let e = Sim.Engine.create () in
  let net = two_host_net e in
  let nic =
    Nic.create ~conn_cache:(Nic.Conn_cache.create_default ()) e net ~host:0 Nic.default_config
  in
  let arrivals = ref [] in
  Netsim.Network.attach net ~host:1 ~rx:(fun pkt ->
      arrivals := (Sim.Engine.now e, pkt.Netsim.Packet.size_bytes) :: !arrivals);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  (e, nic, arrivals)

let test_rc_miss_penalty () =
  let e, nic, arrivals = rc_sender () in
  let one_way () =
    let t0 = Sim.Engine.now e in
    Nic.tx_burst nic ~at:(Sim.Engine.now e) (mk_pkt ~src:0 ~dst:1 ());
    Sim.Engine.run e;
    fst (List.hd !arrivals) - t0
  in
  let miss = one_way () in
  let hit = one_way () in
  check_int "a miss costs 120 ns over a hit" 120 (miss - hit)

let test_rc_hit_after_miss_keeps_order () =
  let e, nic, arrivals = rc_sender () in
  (* The first post misses the cold cache; the second, at the same
     instant and to the same peer, hits. *)
  Nic.tx_burst nic ~at:(Sim.Engine.now e) (mk_pkt ~size:101 ~src:0 ~dst:1 ());
  Nic.tx_burst nic ~at:(Sim.Engine.now e) (mk_pkt ~size:102 ~src:0 ~dst:1 ());
  check_int "the hit enters the wire no earlier than the miss"
    (Nic.default_config.tx_latency_ns + 120 + Nic.default_config.tx_flush_ns)
    (Nic.flush_time_ns nic);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "arrive in post order" [ 101; 102 ]
    (List.rev_map snd !arrivals)

let suite =
  [
    Alcotest.test_case "rx ring and poll" `Quick test_rx_ring_and_poll;
    Alcotest.test_case "RQ exhaustion drops" `Quick test_rq_exhaustion_drops;
    Alcotest.test_case "RC: RQ exhaustion never drops" `Quick test_rc_rq_exhaustion_no_drops;
    Alcotest.test_case "multi-packet RQ amortization" `Quick test_multi_packet_rq_amortization;
    Alcotest.test_case "unsignaled TX + flush" `Quick test_unsignaled_tx_and_flush;
    Alcotest.test_case "TX posted ahead of its entry time" `Quick test_tx_posted_ahead;
    Alcotest.test_case "rx notify on empty ring" `Quick test_rx_notify_fires_on_empty_ring_only;
    Alcotest.test_case "jitter preserves FIFO" `Quick test_jitter_preserves_fifo;
    Alcotest.test_case "RC: connection-cache miss penalty" `Quick test_rc_miss_penalty;
    Alcotest.test_case "RC: hit after miss keeps post order" `Quick
      test_rc_hit_after_miss_keeps_order;
  ]
