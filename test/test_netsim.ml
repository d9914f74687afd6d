(* Tests for the network fabric: shared-buffer admission, port timing,
   switching, topologies, loss injection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 Buffer pool (dynamic threshold)} *)

let test_pool_basic_admission () =
  let p = Netsim.Buffer_pool.create ~capacity_bytes:1_000 ~alpha:8.0 in
  check_bool "admit small" true (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size:100);
  check_int "used" 100 (Netsim.Buffer_pool.used p);
  check_int "free" 900 (Netsim.Buffer_pool.free p);
  Netsim.Buffer_pool.release p 100;
  check_int "released" 0 (Netsim.Buffer_pool.used p)

let test_pool_rejects_over_capacity () =
  let p = Netsim.Buffer_pool.create ~capacity_bytes:1_000 ~alpha:100.0 in
  check_bool "fill" true (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size:900);
  check_bool "reject overflow" false (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size:200)

let test_pool_dynamic_threshold () =
  (* alpha=1: a port may hold at most as much as remains free. *)
  let p = Netsim.Buffer_pool.create ~capacity_bytes:1_000 ~alpha:1.0 in
  (* Fill 600 from "another port"; free = 400. A port already holding 300
     may not take 200 more (300+200 > 400). *)
  check_bool "other port" true (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size:600);
  check_bool "DT reject" false (Netsim.Buffer_pool.admit p ~port_queued_bytes:300 ~size:200);
  check_bool "DT admit smaller" true (Netsim.Buffer_pool.admit p ~port_queued_bytes:300 ~size:100)

let test_pool_high_water_mark () =
  let p = Netsim.Buffer_pool.create ~capacity_bytes:1_000 ~alpha:8.0 in
  ignore (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size:700);
  Netsim.Buffer_pool.release p 700;
  check_int "max used" 700 (Netsim.Buffer_pool.max_used p)

(* {2 Port} *)

let mk_pkt ?(size = 1_000) ?(flow = 0) ~src ~dst () =
  Netsim.Packet.make ~src ~dst ~size_bytes:size ~flow_hash:flow Netsim.Packet.Empty

let test_port_serialization_timing () =
  let e = Sim.Engine.create () in
  let arrivals = ref [] in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:8.0 ~extra_delay_ns:100
      ~sink:(fun _ -> arrivals := Sim.Engine.now e :: !arrivals)
      ()
  in
  (* 1000 B at 8 Gbps = 1000 ns serialization + 100 ns propagation. *)
  ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()));
  ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "arrival times" [ 1_100; 2_100 ] (List.rev !arrivals)

let test_port_stats () =
  let e = Sim.Engine.create () in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:10.0 ~extra_delay_ns:0 ~sink:(fun _ -> ()) ()
  in
  for _ = 1 to 5 do
    ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ~size:500 ()))
  done;
  Sim.Engine.run e;
  check_int "tx packets" 5 (Netsim.Port.tx_packets port);
  check_int "tx bytes" 2_500 (Netsim.Port.tx_bytes port);
  check_int "queue drained" 0 (Netsim.Port.queued_bytes port)

let test_port_drops_when_pool_full () =
  let e = Sim.Engine.create () in
  let pool = Netsim.Buffer_pool.create ~capacity_bytes:2_000 ~alpha:100.0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:0.008 (* 1 B/us: very slow *) ~extra_delay_ns:0
      ~pool ~sink:(fun _ -> ()) ()
  in
  let sent = ref 0 in
  for _ = 1 to 5 do
    if Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ~size:1_000 ()) then incr sent
  done;
  check_int "only 2 admitted" 2 !sent;
  check_int "3 dropped" 3 (Netsim.Port.dropped_packets port);
  check_int "dropped bytes" 3_000 (Netsim.Port.dropped_bytes port)

let test_port_queue_delay () =
  let e = Sim.Engine.create () in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:8.0 ~extra_delay_ns:0 ~sink:(fun _ -> ()) ()
  in
  ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ~size:1_000 ()));
  ignore (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ~size:1_000 ()));
  check_int "2000 B at 8 Gbps" 2_000 (Netsim.Port.queue_delay port)

(* {2 Switch} *)

let test_switch_routes_by_destination () =
  let e = Sim.Engine.create () in
  let sw = Netsim.Switch.create e ~name:"sw" ~buffer_bytes:1_000_000 ~alpha:8.0 in
  let got = Array.make 2 0 in
  let add_port i =
    let p =
      Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:(string_of_int i) ~rate_gbps:10.0 ~extra_delay_ns:0
        ~pool:(Netsim.Switch.pool sw)
        ~sink:(fun _ -> got.(i) <- got.(i) + 1)
        ()
    in
    Netsim.Switch.add_port sw p
  in
  let p0 = add_port 0 and p1 = add_port 1 in
  Netsim.Switch.set_route sw ~dst:10 ~ports:[| p0 |];
  Netsim.Switch.set_route sw ~dst:11 ~ports:[| p1 |];
  Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:10 ());
  Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:11 ());
  Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:11 ());
  Sim.Engine.run e;
  check_int "port0" 1 got.(0);
  check_int "port1" 2 got.(1)

let test_switch_no_route_raises () =
  let e = Sim.Engine.create () in
  let sw = Netsim.Switch.create e ~name:"sw" ~buffer_bytes:1_000 ~alpha:1.0 in
  Alcotest.check_raises "no route" (Invalid_argument "Switch sw: no route for host 5") (fun () ->
      Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:5 ()))

let test_switch_ecmp_spreads_flows () =
  let e = Sim.Engine.create () in
  let sw = Netsim.Switch.create e ~name:"sw" ~buffer_bytes:10_000_000 ~alpha:8.0 in
  let counts = Array.make 4 0 in
  let ports =
    Array.init 4 (fun i ->
        let p =
          Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:(string_of_int i) ~rate_gbps:100.0 ~extra_delay_ns:0
            ~pool:(Netsim.Switch.pool sw)
            ~sink:(fun _ -> counts.(i) <- counts.(i) + 1)
            ()
        in
        Netsim.Switch.add_port sw p)
  in
  Netsim.Switch.set_route sw ~dst:1 ~ports;
  (* 400 flows, one packet each. *)
  for flow = 0 to 399 do
    Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:1 ~flow ())
  done;
  Sim.Engine.run e;
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "port %d got %d" i c) true (c > 50 && c < 150))
    counts;
  (* Same flow always takes the same port (no reordering across paths). *)
  let before = Array.copy counts in
  for _ = 1 to 10 do
    Netsim.Switch.forward sw (mk_pkt ~src:0 ~dst:1 ~flow:7 ())
  done;
  Sim.Engine.run e;
  let diffs = ref 0 in
  Array.iteri (fun i c -> if c <> before.(i) then incr diffs) counts;
  check_int "single port absorbed the flow" 1 !diffs

(* {2 Network topologies} *)

let test_single_switch_delivery () =
  let e = Sim.Engine.create () in
  let cfg =
    { Netsim.Network.default_config with topology = Netsim.Network.Single_switch { hosts = 4 } }
  in
  let net = Netsim.Network.create e cfg in
  check_int "hosts" 4 (Netsim.Network.num_hosts net);
  let received = Array.make 4 0 in
  for h = 0 to 3 do
    Netsim.Network.attach net ~host:h ~rx:(fun _ -> received.(h) <- received.(h) + 1)
  done;
  for dst = 1 to 3 do
    Netsim.Network.send net (mk_pkt ~src:0 ~dst ())
  done;
  Sim.Engine.run e;
  Alcotest.(check (array int)) "one each" [| 0; 1; 1; 1 |] received

let two_tier_cfg ~hosts_per_tor =
  {
    Netsim.Network.default_config with
    topology =
      Netsim.Network.Two_tier
        { tors = 3; hosts_per_tor; spines = 1; uplinks_per_tor = 2; uplink_gbps = 100.0 };
  }

let test_two_tier_all_pairs () =
  let e = Sim.Engine.create () in
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:3) in
  let n = Netsim.Network.num_hosts net in
  check_int "9 hosts" 9 n;
  let received = Array.make_matrix n n 0 in
  for h = 0 to n - 1 do
    Netsim.Network.attach net ~host:h ~rx:(fun pkt ->
        received.(pkt.Netsim.Packet.src).(h) <- received.(pkt.Netsim.Packet.src).(h) + 1)
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Netsim.Network.send net (mk_pkt ~src ~dst ~flow:(src * dst) ())
    done
  done;
  Sim.Engine.run e;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        check_int (Printf.sprintf "%d->%d" src dst) 1 received.(src).(dst)
    done
  done

(* Every packet crosses one port per hop: its host's NIC TX port and the
   ToR downlink under the same ToR, plus a ToR uplink and a spine
   downlink across ToRs. So the ports' transmit counters sum to the hops
   of the paths sent: this ties the netsim's packet count to the
   senders'. The conservation audit holds mid-run, with packets still
   queued, and at quiescence. *)
let test_two_tier_port_hops () =
  let e = Sim.Engine.create () in
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:3) in
  let n = Netsim.Network.num_hosts net in
  for h = 0 to n - 1 do
    Netsim.Network.attach net ~host:h ~rx:Netsim.Packet.free
  done;
  let hops = ref 0 in
  for round = 0 to 2 do
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then begin
          hops := !hops + if Netsim.Network.same_tor net src dst then 2 else 4;
          Netsim.Network.send net (mk_pkt ~src ~dst ~flow:((src * n) + dst + round) ())
        end
      done
    done
  done;
  Sim.Engine.run_until e 3_000;
  check_bool "queues still hold packets" true
    (List.exists (fun p -> Netsim.Port.queued_bytes p > 0) (Netsim.Network.ports net));
  Alcotest.(check (list string)) "audit mid-run" [] (Netsim.Network.audit net);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "audit at quiescence" [] (Netsim.Network.audit net);
  let tx = List.fold_left (fun acc p -> acc + Netsim.Port.tx_packets p) 0 (Netsim.Network.ports net) in
  check_int "port tx packets = path hops" !hops tx

(* A port records a departure's trace sample only when the departure
   settles, and at quiescence nothing admits again to settle the last
   ones: reading the trace must settle them. Read the trace before any
   port counter, since a counter read settles too. *)
let test_trace_holds_every_departure () =
  let e = Sim.Engine.create () in
  let tr = Obs.Trace.create ~capacity:(1 lsl 16) () in
  Sim.Engine.set_trace e tr;
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:2) in
  let n = Netsim.Network.num_hosts net in
  for h = 0 to n - 1 do
    Netsim.Network.attach net ~host:h ~rx:Netsim.Packet.free
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Netsim.Network.send net (mk_pkt ~src ~dst ~flow:((src * n) + dst) ())
    done
  done;
  Sim.Engine.run e;
  let samples = Hashtbl.create 16 in
  List.iter
    (fun (ev : Obs.Trace.ev) ->
      match (ev.phase, ev.args) with
      | Obs.Trace.Counter, [ ("queued_bytes", _) ] ->
          Hashtbl.replace samples ev.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt samples ev.name))
      | _ -> ())
    (Obs.Trace.events tr);
  List.iter
    (fun p ->
      let name = Netsim.Port.name p in
      check_int (name ^ " departure samples")
        (Netsim.Port.tx_packets p)
        (Option.value ~default:0 (Hashtbl.find_opt samples name)))
    (Netsim.Network.ports net)

(* The tie rules of a closed-form port. 1000 B at 8 Gbps leave 1000 ns
   after admission. An admission at that very nanosecond still sees them
   queued (here: the pool is too full to admit), while a read then
   counts them gone; a nanosecond later they are gone for admission
   too. *)
let test_port_departure_ties () =
  let e = Sim.Engine.create () in
  let pool = Netsim.Buffer_pool.create ~capacity_bytes:1_500 ~alpha:100.0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:8.0
      ~extra_delay_ns:0 ~pool ~sink:Netsim.Packet.free ()
  in
  check_bool "first admitted" true (Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()));
  let send () = Netsim.Port.send port (mk_pkt ~src:0 ~dst:1 ()) in
  Sim.Engine.schedule e 1_000 (fun () ->
      check_int "read: queue empty" 0 (Netsim.Port.queued_bytes port);
      check_int "read: one sent" 1 (Netsim.Port.tx_packets port);
      check_int "read: pool empty" 0 (Netsim.Buffer_pool.used_through pool 1_000);
      check_bool "admission: still full" false (send ()));
  Sim.Engine.schedule e 1_001 (fun () -> check_bool "admitted a nanosecond later" true (send ()));
  Sim.Engine.run e;
  check_int "one dropped" 1 (Netsim.Port.dropped_packets port);
  check_int "two sent" 2 (Netsim.Port.tx_packets port);
  Alcotest.(check (list string)) "audit" [] (Netsim.Port.audit port)

(* Held releases settle in time order, whatever order they were made in. *)
let test_pool_timed_releases () =
  let p = Netsim.Buffer_pool.create ~capacity_bytes:10_000 ~alpha:8.0 in
  List.iter
    (fun (at, size) ->
      assert (Netsim.Buffer_pool.admit p ~port_queued_bytes:0 ~size);
      Netsim.Buffer_pool.release_at p ~at ~size)
    [ (50, 500); (10, 100); (30, 300); (30, 30); (20, 200); (40, 400) ];
  check_int "all held" 1_530 (Netsim.Buffer_pool.used p);
  check_int "through 30" 900 (Netsim.Buffer_pool.used_through p 30);
  check_int "reading settles only what is before now" 1_230 (Netsim.Buffer_pool.used p);
  Netsim.Buffer_pool.settle p ~before:45;
  check_int "settled before 45" 500 (Netsim.Buffer_pool.used p);
  Netsim.Buffer_pool.settle p ~before:max_int;
  check_int "drained" 0 (Netsim.Buffer_pool.used p)

let test_two_tier_same_tor () =
  let e = Sim.Engine.create () in
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:3) in
  check_bool "0,2 same tor" true (Netsim.Network.same_tor net 0 2);
  check_bool "0,3 different tor" false (Netsim.Network.same_tor net 0 3)

let test_cross_tor_slower_than_same_tor () =
  let e = Sim.Engine.create () in
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:3) in
  let arrival = Hashtbl.create 4 in
  List.iter
    (fun h -> Netsim.Network.attach net ~host:h ~rx:(fun _ -> Hashtbl.replace arrival h (Sim.Engine.now e)))
    [ 1; 3 ];
  Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ());
  Netsim.Network.send net (mk_pkt ~src:0 ~dst:3 ());
  Sim.Engine.run e;
  let t_same = Hashtbl.find arrival 1 and t_cross = Hashtbl.find arrival 3 in
  check_bool
    (Printf.sprintf "cross-ToR %d > same-ToR %d" t_cross t_same)
    true (t_cross > t_same)

(* Each port takes one split of the engine's RNG and uses none of it; the
   draw stays so that every stream split after it keeps its values. *)
let test_port_create_draws_one_split () =
  let after_port =
    let e = Sim.Engine.create ~seed:7L () in
    ignore
      (Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:10.0
         ~extra_delay_ns:0 ~sink:(fun _ -> ()) ());
    Sim.Rng.next (Sim.Engine.rng e)
  in
  let after_split =
    let e = Sim.Engine.create ~seed:7L () in
    ignore (Sim.Rng.split (Sim.Engine.rng e));
    Sim.Rng.next (Sim.Engine.rng e)
  in
  let untouched = Sim.Rng.next (Sim.Engine.rng (Sim.Engine.create ~seed:7L ())) in
  Alcotest.(check int64) "port advances the RNG by one split" after_split after_port;
  check_bool "the draw is not a no-op" true (after_port <> untouched)

let test_loss_injection () =
  let e = Sim.Engine.create () in
  let cfg =
    { Netsim.Network.default_config with topology = Netsim.Network.Single_switch { hosts = 2 } }
  in
  let net = Netsim.Network.create e cfg in
  let got = ref 0 in
  Netsim.Network.attach net ~host:1 ~rx:(fun _ -> incr got);
  Netsim.Network.attach net ~host:0 ~rx:(fun _ -> ());
  Netsim.Network.set_loss_prob net 0.5;
  let n = 10_000 in
  for _ = 1 to n do
    Netsim.Network.send net (mk_pkt ~src:0 ~dst:1 ~size:100 ())
  done;
  Sim.Engine.run e;
  check_int "conservation" n (!got + Netsim.Network.injected_losses net);
  let ratio = float_of_int !got /. float_of_int n in
  check_bool (Printf.sprintf "half delivered (%.2f)" ratio) true (abs_float (ratio -. 0.5) < 0.05)

let test_victim_port_accessor () =
  let e = Sim.Engine.create () in
  let net = Netsim.Network.create e (two_tier_cfg ~hosts_per_tor:3) in
  let port = Netsim.Network.tor_downlink_port net ~host:4 in
  check_bool "named for host" true
    (String.length (Netsim.Port.name port) > 0
    && String.length (Netsim.Port.name port) >= 2)

(* {2 Event cost} *)

(* One 32 B echo RPC between two hosts under the same CX4 ToR, counted
   from enqueue to the continuation. The switch's cut-through latency
   rides on the link that feeds it, so each of the two switch traversals
   (request, response) costs its link's single arrival event: 19 events
   when the switch scheduled a separate hop event, 17 when each port still
   posted a serialization-done event, 13 when each of the four port hops
   became one arrival event, 11 now that a packet the CPU finishes in the
   future is posted to the NIC at once instead of by an event of its
   own. *)
let test_echo_event_count () =
  let cluster = Transport.Cluster.cx4 ~nodes:10 () in
  let fabric = Erpc.Fabric.create cluster in
  check_bool "same ToR" true (Netsim.Network.same_tor (Erpc.Fabric.net fabric) 0 1);
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:1 ~mode:Erpc.Nexus.Dispatch (fun h ->
      let req = Erpc.Req_handle.get_request h in
      let resp = Erpc.Req_handle.init_response h ~size:(Erpc.Msgbuf.size req) in
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  ignore (Erpc.Rpc.create nx1 ~rpc_id:0);
  let engine = Erpc.Fabric.engine fabric in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let req = Erpc.Msgbuf.alloc ~max_size:32 and resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let e0 = Sim.Engine.events_processed engine in
  let events = ref (-1) in
  Erpc.Rpc.enqueue_request client sess ~req_type:1 ~req ~resp ~cont:(fun r ->
      check_bool "rpc ok" true (Result.is_ok r);
      events := Sim.Engine.events_processed engine - e0);
  Sim.Engine.run_until engine (Sim.Time.ms 2.0);
  check_int "engine events per echo RPC" 11 !events

(* {2 Packet handles} *)

(* A pooled packet is interned once, by its pool, and keeps its handle
   across reuse, parked or in flight. Unpooled packets hand their handle back at their
   last free, so N send/free cycles through a network leave no live
   handle and a table no larger than the packets in flight at once. *)
let test_packet_handle_lifecycle () =
  let e = Sim.Engine.create () in
  let cfg = two_tier_cfg ~hosts_per_tor:2 in
  let net = Netsim.Network.create e cfg in
  let tbl = Netsim.Network.packets net in
  let delivered = ref 0 in
  for h = 0 to Netsim.Network.num_hosts net - 1 do
    Netsim.Network.attach net ~host:h ~rx:(fun pkt ->
        incr delivered;
        Netsim.Packet.free pkt)
  done;
  let pool = Erpc.Wire.create_pool tbl in
  let pooled () =
    Erpc.Wire.make pool ~src_host:0 ~dst_host:5 ~dst_rpc:0 ~wire_overhead:60 ~flow:3
      ~req_type:1 ~msg_size:0 ~dest_session:0 ~pkt_type:Erpc.Pkthdr.Cr ~pkt_num:0 ~req_num:0
      ~token:0 ~data:Bytes.empty ~off:0 ~len:0
  in
  let p = pooled () in
  let h = p.Netsim.Packet.handle in
  check_bool "interned by its pool" true (h >= 0);
  Netsim.Network.send net p;
  Sim.Engine.run e;
  check_int "parked pooled packet keeps its handle" 1 (Netsim.Packet.live_handles tbl);
  for _ = 1 to 100 do
    let q = pooled () in
    check_bool "pool reuses the record" true (q == p);
    Netsim.Network.send net q;
    Sim.Engine.run e
  done;
  check_int "same handle across reuse" h p.Netsim.Packet.handle;
  check_bool "handle resolves to the packet" true (Netsim.Packet.get tbl h == p);
  let n = 1_000 in
  for i = 0 to n - 1 do
    Netsim.Network.send net (mk_pkt ~src:(i mod 3) ~dst:(3 + (i mod 3)) ~flow:i ());
    if i mod 10 = 9 then Sim.Engine.run e
  done;
  Sim.Engine.run e;
  check_int "all delivered" (101 + n) !delivered;
  check_int "only the pooled packet holds a handle" 1 (Netsim.Packet.live_handles tbl);
  check_bool
    (Printf.sprintf "table stays small (%d)" (Netsim.Packet.table_capacity tbl))
    true
    (Netsim.Packet.table_capacity tbl <= 64);
  Alcotest.check_raises "a handle belongs to one table"
    (Invalid_argument "Packet.intern: handle from another table") (fun () ->
      ignore (Netsim.Packet.intern (Netsim.Packet.create_table ()) p))

let suite =
  [
    Alcotest.test_case "pool admission" `Quick test_pool_basic_admission;
    Alcotest.test_case "pool capacity" `Quick test_pool_rejects_over_capacity;
    Alcotest.test_case "pool dynamic threshold" `Quick test_pool_dynamic_threshold;
    Alcotest.test_case "pool high-water mark" `Quick test_pool_high_water_mark;
    Alcotest.test_case "port serialization" `Quick test_port_serialization_timing;
    Alcotest.test_case "port stats" `Quick test_port_stats;
    Alcotest.test_case "port drops on full pool" `Quick test_port_drops_when_pool_full;
    Alcotest.test_case "port queue delay" `Quick test_port_queue_delay;
    Alcotest.test_case "switch routing" `Quick test_switch_routes_by_destination;
    Alcotest.test_case "switch no route" `Quick test_switch_no_route_raises;
    Alcotest.test_case "switch ECMP" `Quick test_switch_ecmp_spreads_flows;
    Alcotest.test_case "single switch delivery" `Quick test_single_switch_delivery;
    Alcotest.test_case "two-tier all pairs" `Quick test_two_tier_all_pairs;
    Alcotest.test_case "two-tier same_tor" `Quick test_two_tier_same_tor;
    Alcotest.test_case "two-tier port hops and audit" `Quick test_two_tier_port_hops;
    Alcotest.test_case "trace holds every departure" `Quick test_trace_holds_every_departure;
    Alcotest.test_case "port departure ties" `Quick test_port_departure_ties;
    Alcotest.test_case "pool timed releases" `Quick test_pool_timed_releases;
    Alcotest.test_case "cross-ToR latency" `Quick test_cross_tor_slower_than_same_tor;
    Alcotest.test_case "port create draws one RNG split" `Quick test_port_create_draws_one_split;
    Alcotest.test_case "loss injection" `Quick test_loss_injection;
    Alcotest.test_case "victim port accessor" `Quick test_victim_port_accessor;
    Alcotest.test_case "echo RPC event count" `Quick test_echo_event_count;
    Alcotest.test_case "packet handle lifecycle" `Quick test_packet_handle_lifecycle;
  ]
