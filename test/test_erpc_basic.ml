(* End-to-end tests of the eRPC core: connect, small RPC, multi-packet
   RPC, backlog, at-most-once. *)

let echo_req_type = 1

(* Two-host CX5-style fabric with an echo server on host 1. *)
let make_pair ?config () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create ?config cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:echo_req_type ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let req = Erpc.Req_handle.get_request h in
      let n = Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      Erpc.Msgbuf.write_string resp ~off:0 (Erpc.Msgbuf.read_string req ~off:0 ~len:n);
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  (fabric, client, server)

let run_for fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let connect fabric client =
  let connected = ref false in
  let sess =
    Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0
      ~on_connect:(fun r ->
        Alcotest.(check bool) "connect ok" true (Result.is_ok r);
        connected := true)
      ()
  in
  run_for fabric 1.0;
  Alcotest.(check bool) "connected" true !connected;
  sess

let test_connect () =
  let fabric, client, _server = make_pair () in
  ignore (connect fabric client)

let test_small_echo () =
  let fabric, client, server = make_pair () in
  let sess = connect fabric client in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Msgbuf.write_string req ~off:0 "hello eRPC, this is 32 bytes!!!!";
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let done_ = ref false in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun r ->
      Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
      done_ := true);
  run_for fabric 1.0;
  Alcotest.(check bool) "completed" true !done_;
  Alcotest.(check string)
    "echoed" "hello eRPC, this is 32 bytes!!!!"
    (Erpc.Msgbuf.read_string resp ~off:0 ~len:32);
  Alcotest.(check int) "server handled one" 1 ((Erpc.Rpc.stats server).Erpc.Rpc_stats.handled);
  Alcotest.(check int) "client completed one" 1 ((Erpc.Rpc.stats client).Erpc.Rpc_stats.completed);
  (* Buffers returned to the app. *)
  Alcotest.(check bool) "req returned" true (Erpc.Msgbuf.owner req = Erpc.Msgbuf.Owned_by_app)

let test_latency_sane () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let engine = Erpc.Fabric.engine fabric in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let lat = ref 0 in
  let t0 = Sim.Engine.now engine in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun _ ->
      lat := Sim.Time.sub (Sim.Engine.now engine) t0);
  run_for fabric 1.0;
  (* CX5 target is ~2.3 us; sanity band 1-6 us. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency %d ns in [1000, 6000]" !lat)
    true
    (!lat >= 1_000 && !lat <= 6_000)

let test_multi_packet_echo () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  (* CX5 MTU is 1024: an 8000-byte request is 8 packets each way. *)
  let n = 8_000 in
  let req = Erpc.Msgbuf.alloc ~max_size:n in
  let pattern = String.init n (fun i -> Char.chr (((i * 7) + (i / 256)) land 0xff)) in
  Erpc.Msgbuf.write_string req ~off:0 pattern;
  let resp = Erpc.Msgbuf.alloc ~max_size:n in
  let done_ = ref false in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun r ->
      Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
      done_ := true);
  run_for fabric 5.0;
  Alcotest.(check bool) "completed" true !done_;
  Alcotest.(check int) "response size" n (Erpc.Msgbuf.size resp);
  Alcotest.(check string) "payload intact" pattern (Erpc.Msgbuf.read_string resp ~off:0 ~len:n)

let test_pipelined_requests () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let total = 100 in
  let completed = ref 0 in
  for i = 0 to total - 1 do
    let req = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Msgbuf.set_u32 req ~off:0 i;
    let resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun r ->
        Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
        Alcotest.(check int) "payload" i (Erpc.Msgbuf.get_u32 resp ~off:0);
        incr completed)
  done;
  run_for fabric 10.0;
  Alcotest.(check int) "all completed" total !completed

let test_ownership_violation () =
  let fabric, client, _server = make_pair () in
  let sess = connect fabric client in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun _ -> ());
  (* The request is in flight: the app must not touch the msgbuf. *)
  Alcotest.check_raises "write while in flight"
    (Invalid_argument
       "Msgbuf.write_string: buffer is in flight (owned by eRPC); wait for the continuation")
    (fun () -> Erpc.Msgbuf.write_string req ~off:0 "boom");
  run_for fabric 1.0

let test_unconnected_enqueue_is_buffered () =
  let fabric, client, _server = make_pair () in
  (* Enqueue before the handshake completes: held in the backlog. *)
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let req = Erpc.Msgbuf.alloc ~max_size:32 in
  let resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let done_ = ref false in
  Erpc.Rpc.enqueue_request client sess ~req_type:echo_req_type ~req ~resp ~cont:(fun r ->
      Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
      done_ := true);
  run_for fabric 2.0;
  Alcotest.(check bool) "completed after connect" true !done_

(* {2 Request handles over per-sslot closures}

   A handle's response closures belong to its sslot and are shared by
   every request the slot serves; these pin down that sharing changes
   neither the at-most-once response rule nor which request a late
   response answers. *)

let double_req_type = 2
let deferred_req_type = 3

let make_custom_pair register =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  register nx1;
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  (fabric, client, server)

let echo_into h =
  let req = Erpc.Req_handle.get_request h in
  let resp = Erpc.Req_handle.init_response h ~size:8 in
  Erpc.Msgbuf.set_u32 resp ~off:0 (Erpc.Msgbuf.get_u32 req ~off:0);
  resp

let test_double_response_raises () =
  let second_raised = ref 0 in
  let fabric, client, _server =
    make_custom_pair (fun nx ->
        Erpc.Nexus.register_handler nx ~req_type:double_req_type ~mode:Erpc.Nexus.Dispatch
          (fun h ->
            let resp = echo_into h in
            Erpc.Req_handle.enqueue_response h resp;
            match Erpc.Req_handle.enqueue_response h resp with
            | () -> ()
            | exception Invalid_argument msg ->
                Alcotest.(check string)
                  "message" "Req_handle.enqueue_response: already responded" msg;
                incr second_raised))
  in
  let sess = connect fabric client in
  let total = 3 * Erpc.Config.req_window in
  let completed = ref 0 in
  for i = 0 to total - 1 do
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Msgbuf.set_u32 req ~off:0 i;
    let resp = Erpc.Msgbuf.alloc ~max_size:8 in
    Erpc.Rpc.enqueue_request client sess ~req_type:double_req_type ~req ~resp ~cont:(fun r ->
        Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
        Alcotest.(check int) "own payload" i (Erpc.Msgbuf.get_u32 resp ~off:0);
        incr completed)
  done;
  run_for fabric 5.0;
  Alcotest.(check int) "every request completed once" total !completed;
  Alcotest.(check int) "every second response raised" total !second_raised

(* The [Replica.pending] pattern: a handle is stored and answered only
   after many other requests have completed on the session's other slots
   (several times each); it must still answer its own request. *)
let test_stored_handle_answers_own_request () =
  let parked = ref None in
  let fabric, client, _server =
    make_custom_pair (fun nx ->
        Erpc.Nexus.register_handler nx ~req_type:deferred_req_type ~mode:Erpc.Nexus.Dispatch
          (fun h ->
            if Erpc.Msgbuf.get_u32 (Erpc.Req_handle.get_request h) ~off:0 = 1000 then
              parked := Some h
            else Erpc.Req_handle.enqueue_response h (echo_into h)))
  in
  let sess = connect fabric client in
  let send i on_done =
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Msgbuf.set_u32 req ~off:0 i;
    let resp = Erpc.Msgbuf.alloc ~max_size:8 in
    Erpc.Rpc.enqueue_request client sess ~req_type:deferred_req_type ~req ~resp ~cont:(fun r ->
        Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
        on_done (Erpc.Msgbuf.get_u32 resp ~off:0) (Erpc.Msgbuf.get_u32 resp ~off:4))
  in
  let parked_answer = ref None in
  send 1000 (fun v marker -> parked_answer := Some (v, marker));
  let others = 5 * Erpc.Config.req_window in
  let completed = ref 0 in
  for i = 0 to others - 1 do
    send i (fun v _ ->
        Alcotest.(check int) "own payload" i v;
        incr completed)
  done;
  run_for fabric 5.0;
  Alcotest.(check int) "other requests completed" others !completed;
  Alcotest.(check bool) "parked request still open" true (!parked_answer = None);
  (match !parked with
  | None -> Alcotest.fail "handler never parked the request"
  | Some h ->
      let resp = echo_into h in
      Erpc.Msgbuf.set_u32 resp ~off:4 0xABCD;
      Erpc.Req_handle.enqueue_response h resp);
  run_for fabric 1.0;
  Alcotest.(check (option (pair int int)))
    "late response answers its own request" (Some (1000, 0xABCD)) !parked_answer

(* Msgbufs get storage on first access, so a request nobody wrote
   travels length-only: the server reassembles it without storage, and
   the response it never wrote comes back the same way. A written request
   on the same slot then arrives intact in the recycled reassembly
   buffer, and an unwritten one after it reads as zeros there. *)
let length_only_req_type = 4

let test_unwritten_request_stays_length_only () =
  let n = 3_000 (* three packets each way at the CX5 MTU *) in
  let seen = ref [] in
  let fabric, client, _server =
    make_custom_pair (fun nx ->
        Erpc.Nexus.register_handler nx ~req_type:length_only_req_type
          ~mode:Erpc.Nexus.Dispatch (fun h ->
            let req = Erpc.Req_handle.get_request h in
            let no_storage = Erpc.Msgbuf.payload req == Netsim.Packet.length_only in
            seen := (no_storage, Erpc.Msgbuf.read_string req ~off:0 ~len:n) :: !seen;
            Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:n)))
  in
  let sess = connect fabric client in
  let send write =
    let req = Erpc.Msgbuf.alloc ~max_size:n and resp = Erpc.Msgbuf.alloc ~max_size:n in
    Option.iter (fun s -> Erpc.Msgbuf.write_string req ~off:0 s) write;
    let resp_has_storage = ref None in
    Erpc.Rpc.enqueue_request client sess ~req_type:length_only_req_type ~req ~resp
      ~cont:(fun r ->
        Alcotest.(check bool) "rpc ok" true (Result.is_ok r);
        resp_has_storage := Some (Erpc.Msgbuf.payload resp != Netsim.Packet.length_only));
    run_for fabric 1.0;
    Alcotest.(check (option bool)) "response arrived without storage" (Some false) !resp_has_storage
  in
  let zeros = String.make n '\000' in
  let pattern = String.init n (fun i -> Char.chr ((i * 13) land 0xff)) in
  send None;
  send (Some pattern);
  send None;
  Alcotest.(check (list (pair bool string)))
    "what the handler saw"
    [ (true, zeros); (false, pattern); (false, zeros) ]
    (List.rev !seen)

let suite =
  [
    Alcotest.test_case "connect" `Quick test_connect;
    Alcotest.test_case "small echo" `Quick test_small_echo;
    Alcotest.test_case "latency sane" `Quick test_latency_sane;
    Alcotest.test_case "multi-packet echo" `Quick test_multi_packet_echo;
    Alcotest.test_case "pipelined requests" `Quick test_pipelined_requests;
    Alcotest.test_case "ownership violation raises" `Quick test_ownership_violation;
    Alcotest.test_case "enqueue before connect" `Quick test_unconnected_enqueue_is_buffered;
    Alcotest.test_case "double response raises" `Quick test_double_response_raises;
    Alcotest.test_case "stored handle answers its own request" `Quick
      test_stored_handle_answers_own_request;
    Alcotest.test_case "unwritten request stays length-only" `Quick
      test_unwritten_request_stays_length_only;
  ]
