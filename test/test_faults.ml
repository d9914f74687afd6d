(* Deterministic fault injection: wire checksums, targeted drops,
   duplication, reordering, link faults, partitions, crash-with-restart
   and the bounded-retransmission session reset (§4.3). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo = Test_erpc_basic.(echo_req_type)

let make_pair ?(count_handler_runs = ref 0) () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
      incr count_handler_runs;
      let req = Erpc.Req_handle.get_request h in
      let n = Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      if n > 0 then Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:n;
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  (fabric, client, server)

let run fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let connect fabric client =
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  run fabric 1.0;
  sess

(* {2 Wire checksum} *)

let mk_pkt ?(pkt_type = Erpc.Pkthdr.Req) ?(payload = Bytes.empty) () =
  Erpc.Wire.make (Erpc.Wire.create_pool (Netsim.Packet.create_table ())) ~src_host:0 ~dst_host:1 ~dst_rpc:0
    ~wire_overhead:60 ~flow:7 ~req_type:1 ~msg_size:(Bytes.length payload) ~dest_session:3
    ~pkt_type ~pkt_num:0 ~req_num:8 ~token:0 ~data:payload ~off:0
    ~len:(Bytes.length payload)

let test_checksum_accepts_clean_packet () =
  let pkt = mk_pkt ~payload:(Bytes.of_string "hello wire") () in
  check_bool "clean packet verifies" true (Erpc.Wire.verify pkt)

(* Corruption in flight is the packet's error flag, on data packets and on
   header-only ones (CR) alike. *)
let test_checksum_detects_payload_corruption () =
  let data = mk_pkt ~payload:(Bytes.of_string "hello wire") () in
  data.Netsim.Packet.corrupted <- true;
  check_bool "corrupted data packet rejected" false (Erpc.Wire.verify data)

let test_checksum_detects_header_corruption () =
  let cr = mk_pkt ~pkt_type:Erpc.Pkthdr.Cr () in
  check_bool "clean CR verifies" true (Erpc.Wire.verify cr);
  cr.Netsim.Packet.corrupted <- true;
  check_bool "corrupted CR rejected" false (Erpc.Wire.verify cr)

let test_rpc_survives_corruption () =
  let handler_runs = ref 0 in
  let fabric, client, _server = make_pair ~count_handler_runs:handler_runs () in
  let sess = connect fabric client in
  let net = Erpc.Fabric.net fabric in
  Netsim.Network.set_corrupt_prob net 0.2;
  let n = 20 in
  let ok = ref 0 in
  let intact = ref 0 in
  for i = 0 to n - 1 do
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Msgbuf.set_u32 req ~off:0 (i * 7919);
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        if Result.is_ok r then begin
          incr ok;
          if Erpc.Msgbuf.get_u32 resp ~off:0 = i * 7919 then incr intact
        end)
  done;
  run fabric 500.0;
  check_int "all completed despite corruption" n !ok;
  check_int "every response intact (corruption never accepted)" n !intact;
  check_int "handlers at most once" n !handler_runs;
  check_bool "corrupted packets were detected and dropped" true
    ((Erpc.Rpc.stats client).Erpc.Rpc_stats.rx_corrupt + (Erpc.Rpc.stats _server).Erpc.Rpc_stats.rx_corrupt > 0)

(* {2 Targeted and randomized network faults} *)

let test_drop_nth_deterministic () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let net = Erpc.Fabric.net fabric in
  (* Delivery #1 after arming is the REQ at the server (SM messages bypass
     the simulated network). *)
  Netsim.Network.arm_drop_nth net 1;
  let done_ = ref false in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      done_ := Result.is_ok r);
  run fabric 50.0;
  check_bool "request recovered from the targeted drop" true !done_;
  check_int "exactly the armed packet was dropped" 1 (Netsim.Network.targeted_drops net);
  check_int "one retransmission" 1 ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits)

let test_duplication_at_most_once () =
  let handler_runs = ref 0 in
  let fabric, client, _server = make_pair ~count_handler_runs:handler_runs () in
  let sess = connect fabric client in
  let net = Erpc.Fabric.net fabric in
  Netsim.Network.set_dup_prob net 1.0;
  let n = 10 in
  let ok = ref 0 in
  for _ = 1 to n do
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        if Result.is_ok r then incr ok)
  done;
  run fabric 100.0;
  check_int "all completed" n !ok;
  check_int "duplicates never re-executed handlers" n !handler_runs;
  check_bool "duplicates were actually injected" true (Netsim.Network.injected_dups net > 0)

let test_reorder_integrity () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let net = Erpc.Fabric.net fabric in
  Netsim.Network.set_reorder net ~prob:0.3 ~max_delay_ns:5_000;
  let n = 50_000 in
  let req = Erpc.Msgbuf.alloc ~max_size:n in
  let pattern = String.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
  Erpc.Msgbuf.write_string req ~off:0 pattern;
  let resp = Erpc.Msgbuf.alloc ~max_size:n in
  let ok = ref false in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      ok := Result.is_ok r);
  run fabric 3_000.0;
  check_bool "completed under reordering" true !ok;
  check_bool "reordering actually injected" true (Netsim.Network.injected_reorders net > 0);
  check_bool "payload intact" true (Erpc.Msgbuf.read_string resp ~off:0 ~len:n = pattern)

let test_link_down_then_up_recovers () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let net = Erpc.Fabric.net fabric in
  let engine = Erpc.Fabric.engine fabric in
  Netsim.Network.set_host_link net ~host:0 false;
  check_bool "link marked down" false (Netsim.Network.host_link_up net ~host:0);
  (* Restore inside the retry budget: 12 ms < 8 RTOs x 5 ms. *)
  Sim.Engine.schedule_after engine 12_000_000 (fun () ->
      Netsim.Network.set_host_link net ~host:0 true);
  let result = ref None in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r);
  run fabric 100.0;
  check_bool "completed after link restored" true (!result = Some (Ok ()));
  check_bool "drops at the downed link" true (Netsim.Network.link_drops net > 0);
  check_bool "recovered via retransmission" true ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits > 0)

let test_partition_heals () =
  let cluster = Transport.Cluster.cx4 ~nodes:10 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx = Array.init 10 (fun host -> Erpc.Nexus.create fabric ~host ()) in
  Erpc.Nexus.register_handler nx.(5) ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
      let resp = Erpc.Req_handle.init_response h ~size:4 in
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx.(0) ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx.(5) ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:5 ~remote_rpc_id:0 () in
  run fabric 1.0;
  let net = Erpc.Fabric.net fabric in
  let tor0 = Netsim.Network.host_tor_index net ~host:0 in
  let tor5 = Netsim.Network.host_tor_index net ~host:5 in
  check_bool "cross-rack pair" true (tor0 <> tor5);
  Netsim.Network.set_partition net ~tor_a:tor0 ~tor_b:tor5 true;
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.schedule_after engine 12_000_000 (fun () ->
      Netsim.Network.set_partition net ~tor_a:tor0 ~tor_b:tor5 false);
  let result = ref None in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r);
  run fabric 100.0;
  check_bool "completed once the partition healed" true (!result = Some (Ok ()));
  check_bool "partition dropped packets" true (Netsim.Network.partition_drops net > 0)

(* {2 Bounded retransmission and crash-with-restart} *)

let test_bounded_retx_resets_session () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let cfg = Erpc.Fabric.config fabric in
  let engine = Erpc.Fabric.engine fabric in
  (* Silence the server forever without SM-plane detection: sever its link
     at the fault layer. Only bounded retransmission can end this. *)
  Netsim.Network.set_host_link (Erpc.Fabric.net fabric) ~host:1 false;
  let result = ref None in
  let done_at = ref 0 in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let issued_at = Sim.Engine.now engine in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r;
      done_at := Sim.Engine.now engine);
  run fabric 200.0;
  (match !result with
  | Some (Error Erpc.Err.Peer_unreachable) -> ()
  | Some (Ok ()) -> Alcotest.fail "request through a dead link completed"
  | Some (Error e) -> Alcotest.fail ("wrong error: " ^ Erpc.Err.to_string e)
  | None -> Alcotest.fail "retransmitted unboundedly: continuation never ran");
  check_bool "failed within max_retransmits * rto of issue" true
    (!done_at - issued_at <= (Erpc.Config.max_retransmits * cfg.rto_ns) + cfg.rto_ns);
  check_bool "retransmit count bounded" true
    ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits < Erpc.Config.max_retransmits);
  check_int "one session reset" 1 ((Erpc.Rpc.stats client).Erpc.Rpc_stats.session_resets);
  Alcotest.(check (list string)) "protocol audit clean" [] (Erpc.Rpc.audit client);
  check_int "credits restored" sess.Erpc.Session.credit_limit sess.Erpc.Session.credits;
  (* Buffers are back with the application. *)
  Erpc.Msgbuf.write_string req ~off:0 "mine";
  Erpc.Msgbuf.write_string resp ~off:0 "mine"

(* The protocol audit is clean on a quiet endpoint and names what is
   out of place: a session whose credit went missing, and an armed RTO
   while a request is in flight. *)
let test_audit_names_session () =
  let fabric, client, _server = make_pair () in
  let _quiet = connect fabric client in
  let sess = connect fabric client in
  Alcotest.(check (list string)) "quiet endpoint: clean" [] (Erpc.Rpc.audit client);
  let limit = sess.Erpc.Session.credit_limit in
  sess.credits <- limit - 1;
  let at = Printf.sprintf "host 0 rpc 0 session sn=%d: " sess.Erpc.Session.sn in
  let credits_line = Printf.sprintf "%scredits %d <> limit %d" at in
  Alcotest.(check (list string)) "the session missing a credit, named"
    [ credits_line (limit - 1) limit ]
    (Erpc.Rpc.audit client);
  sess.credits <- limit;
  Netsim.Network.set_host_link (Erpc.Fabric.net fabric) ~host:1 false;
  let req = Erpc.Msgbuf.alloc ~max_size:32 and resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun _ -> ());
  run fabric 0.1;
  Alcotest.(check (list string)) "in flight: a credit out, the RTO armed"
    [ credits_line (limit - 1) limit; at ^ "slot 0: RTO armed" ]
    (Erpc.Rpc.audit client)

let test_retx_warning_counter () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  Netsim.Network.set_host_link (Erpc.Fabric.net fabric) ~host:1 false;
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun _ -> ());
  run fabric 200.0;
  check_bool "warned when a slot burned half its retry budget" true
    ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retx_warnings > 0);
  check_bool "per-session retransmit counter exposed" true
    (sess.Erpc.Session.retransmits > 0)

let test_crash_restart_peer_unreachable () =
  let fabric, client, server = make_pair () in
  let sess = connect fabric client in
  let cfg = Erpc.Fabric.config fabric in
  let engine = Erpc.Fabric.engine fabric in
  (* Crash-with-restart faster than the SM failure timeout: peers never see
     a failure event, and the restarted server has lost all session state.
     The client must converge to Peer_unreachable on its own. *)
  let down_ns = 1_000_000 in
  check_bool "restart beats the detector" true (down_ns < Erpc.Config.sm_failure_timeout_ns);
  Erpc.Fabric.crash_host fabric 1 ~down_ns;
  let result = ref None in
  let done_at = ref 0 in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let issued_at = Sim.Engine.now engine in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
      result := Some r;
      done_at := Sim.Engine.now engine);
  run fabric 200.0;
  (match !result with
  | Some (Error Erpc.Err.Peer_unreachable) -> ()
  | Some (Ok ()) -> Alcotest.fail "request to crashed-and-restarted host completed"
  | Some (Error e) -> Alcotest.fail ("wrong error: " ^ Erpc.Err.to_string e)
  | None -> Alcotest.fail "continuation never ran");
  check_bool "bounded: failed within max_retransmits * rto" true
    (!done_at - issued_at <= (Erpc.Config.max_retransmits * cfg.rto_ns) + cfg.rto_ns);
  check_bool "host is back up" false (Erpc.Fabric.host_dead fabric 1);
  check_int "restarted server lost its sessions" 0 (Erpc.Rpc.num_sessions server);
  Alcotest.(check (list string)) "protocol audit clean" [] (Erpc.Rpc.audit client)

let test_crash_fails_local_pending () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let results = ref [] in
  for _ = 1 to 4 do
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
        results := r :: !results)
  done;
  (* The *client's* host crashes with requests in flight: every
     continuation must still run (exactly once), with an error. *)
  Erpc.Fabric.crash_host fabric 0 ~down_ns:2_000_000;
  run fabric 50.0;
  check_int "all continuations ran" 4 (List.length !results);
  check_bool "all failed" true (List.for_all Result.is_error !results);
  check_int "crashed client wiped its sessions" 0 (Erpc.Rpc.num_sessions client);
  Alcotest.(check (list string)) "protocol audit clean" [] (Erpc.Rpc.audit client)

let test_crash_restart_new_session_works () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  Erpc.Fabric.crash_host fabric 1 ~down_ns:1_000_000;
  let r1 = ref None in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r -> r1 := Some r);
  run fabric 200.0;
  check_bool "old session's request failed" true
    (match !r1 with Some (Error _) -> true | _ -> false);
  (* Service resumes: a fresh session to the restarted server works. *)
  let sess2 = connect fabric client in
  let r2 = ref None in
  let req2 = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp2 = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess2 ~req_type:echo ~req:req2 ~resp:resp2 ~cont:(fun r ->
      r2 := Some r);
  run fabric 50.0;
  check_bool "new session to restarted host serves requests" true (!r2 = Some (Ok ()))

(* {2 Injector} *)

let test_injector_refcounts_overlapping_faults () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let net = Erpc.Fabric.net fabric in
  let engine = Erpc.Fabric.engine fabric in
  let trace = Faults.Trace.create () in
  let inj = Faults.Injector.create ~trace fabric in
  (* Two overlapping link-down windows: the link must come back only when
     the *second* one expires. Three overlapping reorder windows: the
     weakest ends under the strongest (no line), then the strongest under
     the middle one (the middle one's values are now in force). *)
  let reorder at_ns prob max_delay_ns duration_ns =
    { Faults.Schedule.at_ns; fault = Reorder { prob; max_delay_ns; duration_ns } }
  in
  Faults.Injector.install inj
    [
      { Faults.Schedule.at_ns = 1_000; fault = Link_down { host = 0; down_ns = 10_000 } };
      { Faults.Schedule.at_ns = 5_000; fault = Link_down { host = 0; down_ns = 20_000 } };
      reorder 2_000 0.5 1_000 10_000;
      reorder 4_000 0.2 3_000 20_000;
      reorder 6_000 0.1 500 2_000;
    ];
  let probe at f = Sim.Engine.schedule engine at f in
  let up_at = Array.make 3 true in
  probe 3_000 (fun () -> up_at.(0) <- Netsim.Network.host_link_up net ~host:0);
  probe 13_000 (fun () -> up_at.(1) <- Netsim.Network.host_link_up net ~host:0);
  probe 30_000 (fun () -> up_at.(2) <- Netsim.Network.host_link_up net ~host:0);
  Sim.Engine.run engine;
  check_bool "down inside first window" false up_at.(0);
  check_bool "still down after first window expires" false up_at.(1);
  check_bool "up after the overlapping window expires" true up_at.(2);
  Alcotest.(check string) "trace records injections and effective reversions"
    "1000 inject link_down host=0 down=10000\n\
     2000 inject reorder p=0.500 max_delay=1000 dur=10000\n\
     4000 inject reorder p=0.200 max_delay=3000 dur=20000\n\
     5000 inject link_down host=0 down=20000\n\
     6000 inject reorder p=0.100 max_delay=500 dur=2000\n\
     12000 reorder p=0.200 max_delay=3000\n\
     24000 reorder off\n\
     25000 restore link host=0\n"
    (Faults.Trace.to_string trace)

(* The fault trace keeps every line, however many a run records. *)
let test_trace_keeps_every_line () =
  let trace = Faults.Trace.create () in
  for i = 1 to 70_000 do
    Faults.Trace.record trace ~at_ns:i "kv"
  done;
  let s = Faults.Trace.to_string trace in
  check_int "every line kept" 70_000 (List.length (String.split_on_char '\n' s) - 1);
  check_bool "first line kept" true (String.starts_with ~prefix:"1 kv\n2 kv\n" s)

let test_schedule_random_is_deterministic () =
  let gen () =
    Faults.Schedule.random ~seed:99L ~horizon_ns:50_000_000 ~events:15 ~hosts:10 ~tors:5
  in
  let s1 = gen () and s2 = gen () in
  check_bool "same seed, same schedule" true (s1 = s2);
  check_bool "mixes several fault kinds" true (Faults.Schedule.num_kinds s1 >= 4);
  check_int "requested event count" 15 (List.length s1);
  let s3 =
    Faults.Schedule.random ~seed:100L ~horizon_ns:50_000_000 ~events:15 ~hosts:10 ~tors:5
  in
  check_bool "different seed, different schedule" true (s1 <> s3)

let suite =
  [
    Alcotest.test_case "checksum accepts clean packet" `Quick test_checksum_accepts_clean_packet;
    Alcotest.test_case "checksum detects payload corruption" `Quick
      test_checksum_detects_payload_corruption;
    Alcotest.test_case "checksum detects header corruption" `Quick
      test_checksum_detects_header_corruption;
    Alcotest.test_case "rpc survives corruption" `Quick test_rpc_survives_corruption;
    Alcotest.test_case "drop-nth is deterministic" `Quick test_drop_nth_deterministic;
    Alcotest.test_case "duplication keeps at-most-once" `Quick test_duplication_at_most_once;
    Alcotest.test_case "reorder keeps integrity" `Quick test_reorder_integrity;
    Alcotest.test_case "link down/up recovers" `Quick test_link_down_then_up_recovers;
    Alcotest.test_case "partition heals" `Quick test_partition_heals;
    Alcotest.test_case "bounded retx resets session" `Quick test_bounded_retx_resets_session;
    Alcotest.test_case "retx warning counter" `Quick test_retx_warning_counter;
    Alcotest.test_case "protocol audit names the session" `Quick test_audit_names_session;
    Alcotest.test_case "crash+restart -> peer unreachable" `Quick
      test_crash_restart_peer_unreachable;
    Alcotest.test_case "crash fails local pending" `Quick test_crash_fails_local_pending;
    Alcotest.test_case "restarted host serves new sessions" `Quick
      test_crash_restart_new_session_works;
    Alcotest.test_case "injector refcounts overlaps" `Quick
      test_injector_refcounts_overlapping_faults;
    Alcotest.test_case "fault trace keeps every line" `Quick test_trace_keeps_every_line;
    Alcotest.test_case "random schedules deterministic" `Quick
      test_schedule_random_is_deterministic;
  ]
