(* Worker threads and nested RPCs (paper §3.1-3.2). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let short_req = 1
let long_req = 2
let front_req = 3

let run fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let connect fabric client ~remote_host =
  let sess = Erpc.Rpc.create_session client ~remote_host ~remote_rpc_id:0 () in
  run fabric 1.0;
  sess

(* A worker-mode handler burning 100 us must not block dispatch-mode
   handlers on the same Rpc (§3.2). *)
let test_long_handler_does_not_block_dispatch () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.charge h 100_000;
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let order = ref [] in
  let issue req_type tag =
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Rpc.enqueue_request client sess ~req_type ~req ~resp ~cont:(fun _ ->
        order := tag :: !order)
  in
  issue long_req `Long;
  issue short_req `Short;
  run fabric 10.0;
  Alcotest.(check bool) "short overtakes long worker RPC" true
    (List.rev !order = [ `Short; `Long ])

(* Worker-mode handler latency includes the two-way dispatch<->worker
   handoff (~400 ns, §3.2). *)
let test_worker_handoff_adds_latency () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  (* Same zero-cost handler registered in both modes. *)
  Erpc.Nexus.register_handler nx1 ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let engine = Erpc.Fabric.engine fabric in
  let measure req_type =
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    let t0 = Sim.Engine.now engine in
    let dt = ref 0 in
    Erpc.Rpc.enqueue_request client sess ~req_type ~req ~resp ~cont:(fun _ ->
        dt := Sim.Time.sub (Sim.Engine.now engine) t0);
    run fabric 5.0;
    !dt
  in
  let dispatch_lat = measure short_req in
  let worker_lat = measure long_req in
  check_bool
    (Printf.sprintf "worker latency %d > dispatch latency %d + 150ns" worker_lat dispatch_lat)
    true
    (worker_lat > dispatch_lat + 150)

(* Jobs on one worker are serialized; two workers run in parallel. *)
let test_worker_parallelism () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:2 () in
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.charge h 1_000_000 (* 1 ms *);
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let engine = Erpc.Fabric.engine fabric in
  let t0 = Sim.Engine.now engine in
  let finished = ref 0 in
  let finish_time = ref 0 in
  for _ = 1 to 2 do
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Rpc.enqueue_request client sess ~req_type:long_req ~req ~resp ~cont:(fun _ ->
        incr finished;
        finish_time := Sim.Time.sub (Sim.Engine.now engine) t0)
  done;
  run fabric 20.0;
  check_int "both done" 2 !finished;
  (* Two 1 ms jobs on two workers: ~1 ms total, not ~2 ms. *)
  check_bool (Printf.sprintf "parallel (total %d ns)" !finish_time) true (!finish_time < 1_800_000)

(* Nested RPCs: a dispatch handler on host 1 issues its own RPC to host 2
   before responding (§3.1: the handler "need not enqueue a response
   before returning"). *)
let test_nested_rpc () =
  let cluster = Transport.Cluster.cx5 ~nodes:3 () in
  let fabric = Erpc.Fabric.create cluster in
  let nexuses = Array.init 3 (fun host -> Erpc.Nexus.create fabric ~host ()) in
  (* Backend on host 2. *)
  Erpc.Nexus.register_handler nexuses.(2) ~req_type:short_req ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let resp = Erpc.Req_handle.init_response h ~size:4 in
      Erpc.Msgbuf.set_u32 resp ~off:0 41;
      Erpc.Req_handle.enqueue_response h resp);
  let rpcs = Array.map (fun nx -> Erpc.Rpc.create nx ~rpc_id:0) nexuses in
  (* Frontend on host 1 forwards to the backend, adds one, then responds. *)
  let backend_sess = ref None in
  Erpc.Nexus.register_handler nexuses.(1) ~req_type:front_req ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let nested_req = Erpc.Msgbuf.alloc ~max_size:4 in
      let nested_resp = Erpc.Msgbuf.alloc ~max_size:4 in
      match !backend_sess with
      | None -> Alcotest.fail "backend session missing"
      | Some sess ->
          Erpc.Rpc.enqueue_request rpcs.(1) sess ~req_type:short_req ~req:nested_req
            ~resp:nested_resp
            ~cont:(fun _ ->
              let resp = Erpc.Req_handle.init_response h ~size:4 in
              Erpc.Msgbuf.set_u32 resp ~off:0 (Erpc.Msgbuf.get_u32 nested_resp ~off:0 + 1);
              Erpc.Req_handle.enqueue_response h resp));
  backend_sess := Some (Erpc.Rpc.create_session rpcs.(1) ~remote_host:2 ~remote_rpc_id:0 ());
  let sess = Erpc.Rpc.create_session rpcs.(0) ~remote_host:1 ~remote_rpc_id:0 () in
  run fabric 1.0;
  let req = Erpc.Msgbuf.alloc ~max_size:4 in
  let resp = Erpc.Msgbuf.alloc ~max_size:4 in
  let answer = ref 0 in
  Erpc.Rpc.enqueue_request rpcs.(0) sess ~req_type:front_req ~req ~resp ~cont:(fun _ ->
      answer := Erpc.Msgbuf.get_u32 resp ~off:0);
  run fabric 10.0;
  check_int "nested chain answered" 42 !answer

(* The server dispatch CPU's busy time over 10 sequential RPCs of
   [long_req], served by [handler] in [mode] on a one-worker host. The
   client sends [request] through [issue]. *)
let server_dispatch_busy ~config ~mode handler issue =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create ~config:(config (Erpc.Config.of_cluster cluster)) cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode handler;
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let completed = ref 0 in
  for _ = 1 to 10 do
    issue client sess (fun ok -> if ok then incr completed);
    run fabric 1.0
  done;
  check_int "all RPCs completed" 10 !completed;
  Sim.Cpu.busy_ns (Erpc.Rpc.cpu server)

let issue_raw client sess k =
  let req = Erpc.Msgbuf.alloc ~max_size:4 in
  let resp = Erpc.Msgbuf.alloc ~max_size:4 in
  Erpc.Rpc.enqueue_request client sess ~req_type:long_req ~req ~resp ~cont:(fun r ->
      k (Result.is_ok r))

(* A worker allocates its response on its own thread: whether the slot's
   preallocated msgbuf is used must not move the dispatch CPU's time. *)
let test_worker_init_response_charges_worker () =
  let busy prealloc =
    server_dispatch_busy
      ~config:(fun c -> { c with Erpc.Config.opts = { c.opts with preallocated_responses = prealloc } })
      ~mode:Erpc.Nexus.Worker
      (fun h -> Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4))
      issue_raw
  in
  check_int "dispatch busy time independent of response preallocation" (busy true) (busy false)

(* A schema both backends encode, with different per-field charges. *)
let codec = Experiments.Harness.schema_fixed

let issue_typed client sess k =
  let value = Experiments.Harness.value_fixed in
  let n = Codec.encoded_size ~backend:(Erpc.Rpc.codec_backend client) codec value in
  Erpc.Typed.enqueue_request client sess ~req_type:long_req ~req_codec:codec ~resp_codec:codec
    ~req_buf:(Erpc.Msgbuf.alloc ~max_size:n) ~resp_buf:(Erpc.Msgbuf.alloc ~max_size:n) value
    ~cont:(fun r -> k (Result.is_ok r))

(* Typed handlers charge their codec work to the thread they run on: in
   Worker mode the dispatch CPU never sees it, in Dispatch mode it does.
   The knob is the codec backend, whose per-field charges differ. *)
let test_typed_worker_codec_charges_worker () =
  let busy mode codec_backend =
    server_dispatch_busy
      ~config:(fun c -> { c with Erpc.Config.codec_backend })
      ~mode
      (fun h -> Erpc.Typed.respond h codec (Erpc.Typed.read_request h codec))
      issue_typed
  in
  check_int "worker: dispatch busy time independent of codec backend"
    (busy Erpc.Nexus.Worker Codec.Compact) (busy Erpc.Nexus.Worker Codec.Flat);
  check_bool "dispatch: codec backend changes dispatch busy time" true
    (busy Erpc.Nexus.Dispatch Codec.Compact <> busy Erpc.Nexus.Dispatch Codec.Flat)

let suite =
  [
    Alcotest.test_case "worker does not block dispatch" `Quick
      test_long_handler_does_not_block_dispatch;
    Alcotest.test_case "worker handoff latency" `Quick test_worker_handoff_adds_latency;
    Alcotest.test_case "worker parallelism" `Quick test_worker_parallelism;
    Alcotest.test_case "nested RPC" `Quick test_nested_rpc;
    Alcotest.test_case "worker init_response charges the worker" `Quick
      test_worker_init_response_charges_worker;
    Alcotest.test_case "typed worker codec charges the worker" `Quick
      test_typed_worker_codec_charges_worker;
  ]
