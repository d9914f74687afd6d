(* Transport-parameterized test helpers and the Transport.Iface
   conformance suite.

   The protocol and loss suites used to duplicate their pair/connect
   helpers per implementation; they are shared here instead, keyed by a
   datapath selector that also covers the intra-host shared-memory mux
   (which is not a [Config.transport_kind] — it wraps one). The
   conformance suite checks the contract every implementation must
   honor: geometry invariants, FIFO rx_burst order, replenish/reset
   semantics, zero descriptor drops on the RDMA RC datapath, and packet
   conservation between the protocol, the devices and the network. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type tp = Raw_eth | Rdma_rc | Shm

let name = function Raw_eth -> "raw_eth" | Rdma_rc -> "rdma_rc" | Shm -> "shm"

(* The two-host CX5 pair every suite runs on; for [Shm] both hosts share
   one machine so the datapath is the shared-memory rings. *)
let cluster_for ?(nodes = 2) tp =
  let c = Transport.Cluster.cx5 ~nodes () in
  match tp with
  | Shm -> Transport.Cluster.colocate c [ List.init nodes Fun.id ]
  | Raw_eth | Rdma_rc -> c

let config_for tp (cfg : Erpc.Config.t) =
  match tp with
  | Raw_eth | Shm -> { cfg with Erpc.Config.transport = Erpc.Config.Raw_eth }
  | Rdma_rc -> { cfg with Erpc.Config.transport = Erpc.Config.Rdma_rc }

let echo = Test_erpc_basic.echo_req_type

(* An echo handler: the response copies the request, or its first
   [resp_size] bytes. *)
let register_echo ?(resp_size = None) ?(count_handler_runs = ref 0) nx =
  Erpc.Nexus.register_handler nx ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
      incr count_handler_runs;
      let req = Erpc.Req_handle.get_request h in
      let n = match resp_size with Some n -> n | None -> Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      let copy = min n (Erpc.Msgbuf.size req) in
      if copy > 0 then Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:copy;
      Erpc.Req_handle.enqueue_response h resp)

let make_pair ?(tp = Raw_eth) ?cluster ?config ?(resp_size = None)
    ?(count_handler_runs = ref 0) () =
  let cluster = match cluster with Some c -> c | None -> cluster_for tp in
  let config =
    config_for tp
      (match config with Some c -> c | None -> Erpc.Config.of_cluster cluster)
  in
  let fabric = Erpc.Fabric.create ~config cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  register_echo ~resp_size ~count_handler_runs nx1;
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  (fabric, client, server)

let run fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let connect ?(check = true) fabric client =
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  run fabric 1.0;
  if check then
    check_bool "connected" true (sess.Erpc.Session.state = Erpc.Session.Connected);
  sess

let do_rpc fabric client sess ~req_size ~resp_cap =
  let req = Erpc.Msgbuf.alloc ~max_size:req_size in
  let resp = Erpc.Msgbuf.alloc ~max_size:resp_cap in
  let ok = ref false in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      ok := Result.is_ok r);
  run fabric 20.0;
  check_bool "rpc completed" true !ok;
  resp

(* {2 Conformance suite} *)

let test_geometry tp () =
  let _fabric, client, server = make_pair ~tp () in
  List.iter
    (fun rpc ->
      let t = Erpc.Rpc.transport rpc in
      check_bool "kind as selected" true (Transport.Iface.kind t = name tp);
      check_bool "rq_size positive" true (Transport.Iface.rq_size t > 0);
      check_bool "ring depth within the RQ budget" true
        (Transport.Iface.rx_ring_depth t >= 0
        && Transport.Iface.rx_ring_depth t <= Transport.Iface.rq_size t);
      check_bool "flush time non-negative" true (Transport.Iface.flush_time_ns t >= 0))
    [ client; server ]

let test_fifo_rx_order tp () =
  (* Concurrent single-packet requests on one session must reach the
     server handler in issue order: the transport's rx_burst is FIFO and
     the protocol preserves it. *)
  let cluster = cluster_for tp in
  let fabric = Erpc.Fabric.create ~config:(config_for tp (Erpc.Config.of_cluster cluster)) cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  let seen = ref [] in
  Erpc.Nexus.register_handler nx1 ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
      let req = Erpc.Req_handle.get_request h in
      seen := Erpc.Msgbuf.get_u32 req ~off:0 :: !seen;
      let resp = Erpc.Req_handle.init_response h ~size:4 in
      Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:4;
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client in
  let n = 16 in
  let completed = ref 0 in
  for i = 0 to n - 1 do
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Msgbuf.set_u32 req ~off:0 i;
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        if Result.is_ok r then incr completed)
  done;
  run fabric 50.0;
  check_int "all completed" n !completed;
  check_bool "handler saw requests in issue order" true
    (List.rev !seen = List.init n Fun.id)

let test_replenish_reset tp () =
  let fabric, client, _server = make_pair ~tp () in
  let sess = connect fabric client in
  ignore (do_rpc fabric client sess ~req_size:32 ~resp_cap:32);
  let t = Erpc.Rpc.transport client in
  check_int "quiesced: nothing pending in TX" 0 (Transport.Iface.tx_pending t);
  check_int "quiesced: rx_burst finds nothing" 0
    (Transport.Iface.rx_burst t ~max:16 (fun _ -> ()));
  (* Restart semantics: dropping the RX ring restores the descriptor
     budget, so the datapath keeps working afterwards. *)
  Transport.Iface.reset_rx t;
  check_int "reset: rx_burst empty" 0 (Transport.Iface.rx_burst t ~max:16 (fun _ -> ()));
  ignore (do_rpc fabric client sess ~req_size:32 ~resp_cap:32);
  check_bool "replenish cost non-negative" true (Transport.Iface.replenish_rx t 0 >= 0)

let test_counters_and_drops tp () =
  let fabric, client, server = make_pair ~tp () in
  let sess = connect fabric client in
  for _ = 1 to 20 do
    ignore (do_rpc fabric client sess ~req_size:32 ~resp_cap:32)
  done;
  let ct = Erpc.Rpc.transport client and st = Erpc.Rpc.transport server in
  check_bool "client transmitted" true (Transport.Iface.tx_packets ct >= 20);
  check_bool "server received" true (Transport.Iface.rx_packets st >= 20);
  check_int "loss-free pair: every TX received" (Transport.Iface.tx_packets ct)
    (Transport.Iface.rx_packets st);
  (* Only link-level flow control (the RC datapath) rules out descriptor
     drops. *)
  if tp = Rdma_rc then begin
    check_int "lossless: no client drops" 0 (Transport.Iface.rx_dropped ct);
    check_int "lossless: no server drops" 0 (Transport.Iface.rx_dropped st)
  end

(* Cross-layer packet conservation. Per endpoint, the protocol's packet
   counters equal its device's. Across the fabric, every packet a device
   transmitted was received by a device, dropped for want of a receive
   descriptor, or lost on the wire: nothing is created, duplicated or
   silently lost between the layers. Three hosts, four sessions, mixed
   single-packet and 14-packet requests, run to quiescence without and
   with injected loss. On the shm datapath only hosts 0 and 1 share a
   machine, so the mux carries both ring and wire traffic. *)
let test_packet_conservation tp () =
  List.iter
    (fun loss ->
      let cluster =
        match tp with
        | Shm -> Transport.Cluster.colocate (Transport.Cluster.cx5 ~nodes:3 ()) [ [ 0; 1 ] ]
        | Raw_eth | Rdma_rc -> cluster_for ~nodes:3 tp
      in
      let config = config_for tp (Erpc.Config.of_cluster cluster) in
      let fabric = Erpc.Fabric.create ~config cluster in
      let net = Erpc.Fabric.net fabric in
      let nexuses = Array.init 3 (fun host -> Erpc.Nexus.create fabric ~host ()) in
      Array.iter (fun nx -> register_echo nx) nexuses;
      let rpcs = Array.map (fun nx -> Erpc.Rpc.create nx ~rpc_id:0) nexuses in
      let sessions =
        List.map
          (fun (src, dst) ->
            (rpcs.(src), Erpc.Rpc.create_session rpcs.(src) ~remote_host:dst ~remote_rpc_id:0 ()))
          [ (0, 1); (0, 2); (1, 2); (2, 0) ]
      in
      run fabric 1.0;
      Netsim.Network.set_loss_prob net loss;
      let per_session = 200 in
      let completed = ref 0 in
      List.iter
        (fun (rpc, sess) ->
          let rec issue i =
            if i < per_session then begin
              let size = if i mod 2 = 0 then 64 else 20_000 in
              let req = Erpc.Msgbuf.alloc ~max_size:size in
              let resp = Erpc.Msgbuf.alloc ~max_size:size in
              Erpc.Rpc.enqueue_request rpc sess ~req_type:echo ~req ~resp ~cont:(fun r ->
                  if Result.is_ok r then incr completed;
                  issue (i + 1))
            end
          in
          issue 0)
        sessions;
      let label what = Printf.sprintf "%s (loss %g)" what loss in
      (* The fabric's own accounting holds with packets in flight and at
         quiescence. *)
      run fabric 1.2;
      check_bool (label "mid-run") true (!completed < 4 * per_session);
      Alcotest.(check (list string)) (label "netsim audit mid-run") [] (Netsim.Network.audit net);
      run fabric 500.0;
      Alcotest.(check (list string))
        (label "netsim audit at quiescence")
        [] (Netsim.Network.audit net);
      check_int (label "every RPC completed") (4 * per_session) !completed;
      Array.iter
        (fun rpc ->
          let st = Erpc.Rpc.stats rpc and t = Erpc.Rpc.transport rpc in
          check_int (label "protocol TX = device TX") st.Erpc.Rpc_stats.tx_pkts
            (Transport.Iface.tx_packets t);
          check_int (label "protocol RX = device RX") st.Erpc.Rpc_stats.rx_pkts
            (Transport.Iface.rx_packets t))
        rpcs;
      let sum f = Array.fold_left (fun acc rpc -> acc + f (Erpc.Rpc.transport rpc)) 0 rpcs in
      check_int
        (label "fabric: TX = RX + descriptor drops + wire losses")
        (sum Transport.Iface.tx_packets)
        (sum Transport.Iface.rx_packets
        + sum Transport.Iface.rx_dropped
        + Netsim.Network.injected_losses net))
    [ 0.0; 1e-3 ]

let suite_for tp =
  [
    Alcotest.test_case "geometry invariants" `Quick (test_geometry tp);
    Alcotest.test_case "FIFO rx order" `Quick (test_fifo_rx_order tp);
    Alcotest.test_case "replenish/reset semantics" `Quick (test_replenish_reset tp);
    Alcotest.test_case "counters and drops" `Quick (test_counters_and_drops tp);
    Alcotest.test_case "packet conservation" `Quick (test_packet_conservation tp);
  ]

let suite = suite_for Raw_eth
let suite_rc = suite_for Rdma_rc
let suite_shm = suite_for Shm
