(* Intra-host shared-memory transport: mux routing, the wire-only
   endpoint of a cluster without co-location, crash-restart ring reset,
   ownership-guard faults, backpressure, the serialize-vs-share cost-model
   crossover, and the zero wire/switch anatomy invariant. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo = Test_erpc_basic.echo_req_type
let run = Transport_testkit.run
let connect = Transport_testkit.connect

let shm_stats rpc =
  match Erpc.Rpc.shm_endpoint rpc with
  | Some ep -> Shm.stats ep
  | None -> Alcotest.fail "expected a shm endpoint"

(* A cluster with no co-located group: the endpoint gets the plain wire
   transport, no mux, and the RPC completes over the NIC. *)
let test_no_colocation_stays_on_wire () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric, client, _server =
    Transport_testkit.make_pair ~cluster ~config:(Erpc.Config.of_cluster cluster) ()
  in
  check_bool "no shm endpoint" true (Erpc.Rpc.shm_endpoint client = None);
  Alcotest.(check string)
    "wire transport selected" "raw_eth"
    (Transport.Iface.kind (Erpc.Rpc.transport client));
  let sess = connect fabric client in
  ignore (Transport_testkit.do_rpc fabric client sess ~req_size:32 ~resp_cap:32);
  check_bool "packets went over the NIC" true
    (Transport.Iface.tx_packets (Erpc.Rpc.transport client) > 0)

(* One endpoint, mixed session set: the mux must route the co-located
   session over the rings and the remote one over the wire. *)
let test_mux_routes_local_and_remote () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:3 ()) [ [ 0; 1 ] ]
  in
  let config = Erpc.Config.of_cluster cluster in
  let fabric = Erpc.Fabric.create ~config cluster in
  let nexuses = Array.init 3 (fun host -> Erpc.Nexus.create fabric ~host ()) in
  Array.iter
    (fun nx ->
      Erpc.Nexus.register_handler nx ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
          let n = Erpc.Msgbuf.size (Erpc.Req_handle.get_request h) in
          let resp = Erpc.Req_handle.init_response h ~size:n in
          Erpc.Req_handle.enqueue_response h resp))
    nexuses;
  let rpcs = Array.map (fun nx -> Erpc.Rpc.create nx ~rpc_id:0) nexuses in
  let client = rpcs.(0) in
  Alcotest.(check string)
    "mux kind" "shm"
    (Transport.Iface.kind (Erpc.Rpc.transport client));
  let local = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let remote = Erpc.Rpc.create_session client ~remote_host:2 ~remote_rpc_id:0 () in
  run fabric 1.0;
  let ok_local = ref false and ok_remote = ref false in
  let issue sess ok =
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        ok := Result.is_ok r)
  in
  issue local ok_local;
  issue remote ok_remote;
  run fabric 20.0;
  check_bool "local RPC completed" true !ok_local;
  check_bool "remote RPC completed" true !ok_remote;
  let s = shm_stats client in
  check_int "exactly the local request crossed the rings" 1 s.Shm.shm_tx;
  check_bool "the remote request went over the wire" true
    (Transport.Iface.tx_packets (Erpc.Rpc.transport rpcs.(2)) > 0);
  (* The co-located server answered over the rings too. *)
  check_int "local response crossed the rings" 1 (shm_stats rpcs.(1)).Shm.shm_tx

(* Crash-with-restart of the co-located peer, faster than the SM failure
   detector: the client converges to Peer_unreachable via bounded
   retransmission (stale session token on the restarted host), the rings
   are reset, and fresh sessions over the same rings work. *)
let test_crash_restart_colocated_peer () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:2 ()) [ [ 0; 1 ] ]
  in
  let config = Erpc.Config.of_cluster cluster in
  let fabric, client, server =
    Transport_testkit.make_pair ~cluster ~config ()
  in
  let sess = connect fabric client in
  ignore (Transport_testkit.do_rpc fabric client sess ~req_size:32 ~resp_cap:32);
  let down_ns = 1_000_000 in
  check_bool "restart beats the detector" true (down_ns < Erpc.Config.sm_failure_timeout_ns);
  Erpc.Fabric.crash_host fabric 1 ~down_ns;
  let result = ref None in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r);
  run fabric 200.0;
  (match !result with
  | Some (Error Erpc.Err.Peer_unreachable) -> ()
  | Some (Ok ()) -> Alcotest.fail "request to crashed-and-restarted host completed"
  | Some (Error e) -> Alcotest.fail ("wrong error: " ^ Erpc.Err.to_string e)
  | None -> Alcotest.fail "continuation never ran");
  check_bool "host is back up" false (Erpc.Fabric.host_dead fabric 1);
  check_int "restarted server lost its sessions" 0 (Erpc.Rpc.num_sessions server);
  check_int "restart drained the server's rings" 0
    (Transport.Iface.rx_burst (Erpc.Rpc.transport server) ~max:64 (fun _ -> ()));
  (* The rings still carry traffic for a fresh session. *)
  let before = (shm_stats client).Shm.shm_tx in
  let sess2 = connect fabric client in
  ignore (Transport_testkit.do_rpc fabric client sess2 ~req_size:32 ~resp_cap:32);
  check_bool "fresh session runs over the rings" true
    ((shm_stats client).Shm.shm_tx > before)

(* MemRPC-style safety: a sender mutating an in-flight shared buffer is
   detected by the seal check, the packet is delivered corrupted (and
   dropped by the wire checksum), and go-back-N retransmission of the
   re-sealed buffer completes the RPC. *)
let test_guard_fault_detected_and_recovered () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:2 ()) [ [ 0; 1 ] ]
  in
  let config =
    {
      (Erpc.Config.of_cluster cluster) with
      shm_mode = Shm.Share;
      (* Widen the in-flight window so the mutation lands mid-transit. *)
      shm_hop_ns = 10_000;
    }
  in
  let fabric, client, server = Transport_testkit.make_pair ~cluster ~config () in
  let engine = Erpc.Fabric.engine fabric in
  let sess = connect fabric client in
  let req = Erpc.Msgbuf.alloc ~max_size:64 in
  let resp = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Msgbuf.write_string req ~off:0 (String.make 64 'a');
  let result = ref None in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r);
  (* The request publishes within ~1 us of the enqueue and is delivered
     ~10 us later; scribble on the (shared, sealed) payload in between.
     [unsafe_bytes] bypasses the msgbuf ownership check on purpose: the
     seal guard exists precisely for senders that dodge that discipline. *)
  Sim.Engine.schedule engine
    (Sim.Time.add (Sim.Engine.now engine) 5_000)
    (fun () ->
      Bytes.blit_string "MUTATED-IN-FLIGHT" 0
        (Erpc.Msgbuf.unsafe_bytes req)
        (Erpc.Msgbuf.unsafe_offset req)
        17);
  run fabric 100.0;
  check_bool "rpc eventually completed" true (!result = Some (Ok ()));
  (* The unseal check runs on the receiving endpoint, so the fault is
     attributed to the mutating sender's peer. *)
  check_bool "ownership violation detected" true
    ((shm_stats server).Shm.guard_faults >= 1);
  check_bool "recovered via retransmission" true
    ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits > 0);
  check_bool "handoff really was by pointer" true
    ((shm_stats client).Shm.shared_tx >= 1)

(* A payload nobody wrote crosses the rings length-only under both
   handoff disciplines: the share path seals it as that many zero bytes
   and unseals it without a guard fault, the serialize path has nothing
   to copy, and the echo comes back without storage. *)
let test_length_only_payload mode () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:2 ()) [ [ 0; 1 ] ]
  in
  let config = { (Erpc.Config.of_cluster cluster) with shm_mode = mode } in
  let fabric, client, server = Transport_testkit.make_pair ~cluster ~config () in
  let sess = connect fabric client in
  List.iter
    (fun size ->
      let resp = Transport_testkit.do_rpc fabric client sess ~req_size:size ~resp_cap:size in
      check_int "echo size" size (Erpc.Msgbuf.size resp);
      check_bool "echo has no storage" true
        (Erpc.Msgbuf.payload resp == Netsim.Packet.length_only);
      check_bool "echo reads as zeros" true
        (Erpc.Msgbuf.read_string resp ~off:0 ~len:size = String.make size '\000'))
    [ 64; 3_000 ];
  check_int "no guard fault" 0 (shm_stats server).Shm.guard_faults;
  let s = shm_stats client in
  check_bool "handed off in this mode" true
    (match mode with Shm.Share -> s.shared_tx > 0 | _ -> s.serialized_tx > 0)

(* A full destination ring stalls the sender (bounded slots, modeled
   wait) — it never drops. *)
let test_backpressure_stalls_not_drops () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:2 ()) [ [ 0; 1 ] ]
  in
  let config =
    { (Erpc.Config.of_cluster cluster) with shm_slots = 2 }
  in
  let fabric, client, _server = Transport_testkit.make_pair ~cluster ~config () in
  let sess = connect fabric client in
  let n = 50 in
  let completed = ref 0 in
  for _ = 1 to n do
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        if Result.is_ok r then incr completed)
  done;
  run fabric 100.0;
  check_int "every request completed" n !completed;
  check_bool "the tiny ring exerted backpressure" true
    ((shm_stats client).Shm.ring_stalls > 0);
  check_int "no retransmissions (nothing was dropped)" 0
    (Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits

(* The serialize-vs-share crossover is an emergent property of the cost
   model: flat share cost vs per-byte copy, consistent on both sides of
   the boundary and landing near 1 KB on the shm-bench profile (CX3), whose
   Auto cells flip exactly there. *)
let test_cost_model_crossover () =
  let r = Experiments.Exp_shm_bench.run ~samples:2 () in
  let c = r.crossover_payload in
  let costs =
    Erpc.Cost_model.(shm_costs (for_cluster (Transport.Cluster.cx3 ~nodes:2 ())))
  in
  let share = costs.Shm.share_tx_ns + costs.Shm.share_rx_ns in
  check_bool "crossover lands near 1 KB" true (c >= 512 && c <= 4096);
  check_bool "below: copying is cheaper" true (costs.Shm.serialize_ns (c - 1) < share);
  check_bool "at crossover: sharing wins" true (share <= costs.Shm.serialize_ns c);
  Alcotest.(check (list string)) "Auto cells agree with it" [] r.violations

(* Intra-host anatomy: NIC/wire/switch exactly zero, transit in the
   ring/guard component, and the exact-sum invariant intact. *)
let test_anatomy_intra_host_zero_wire () =
  let r = Experiments.Exp_anatomy.run ~seed:7L ~samples:8 ~transport:`Shm () in
  check_bool "breakdowns produced" true (r.breakdowns <> []);
  List.iter
    (fun (b : Obs.Anatomy.breakdown) ->
      check_int "nic zero" 0 b.nic_ns;
      check_int "wire zero" 0 b.wire_ns;
      check_int "switch zero" 0 b.switch_ns;
      check_bool "ring transit positive" true (b.ring_ns > 0);
      check_int "components sum exactly to the total" b.total_ns
        (Obs.Anatomy.sum_components b))
    r.breakdowns

let suite =
  [
    Alcotest.test_case "no co-located group: the wire, no mux" `Quick
      test_no_colocation_stays_on_wire;
    Alcotest.test_case "mux routes local and remote sessions" `Quick
      test_mux_routes_local_and_remote;
    Alcotest.test_case "crash-restart of co-located peer" `Quick
      test_crash_restart_colocated_peer;
    Alcotest.test_case "in-flight mutation faults and recovers" `Quick
      test_guard_fault_detected_and_recovered;
    Alcotest.test_case "full ring stalls, never drops" `Quick
      test_backpressure_stalls_not_drops;
    Alcotest.test_case "serialize-vs-share crossover" `Quick test_cost_model_crossover;
    Alcotest.test_case "length-only payload, share" `Quick (test_length_only_payload Shm.Share);
    Alcotest.test_case "length-only payload, serialize" `Quick
      (test_length_only_payload Shm.Serialize);
    Alcotest.test_case "intra-host anatomy: zero wire/switch" `Quick
      test_anatomy_intra_host_zero_wire;
  ]
