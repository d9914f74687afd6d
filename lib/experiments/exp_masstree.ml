type result = {
  gets_per_sec_m : float;
  get_p50_us : float;
  get_p99_us : float;
  scan_p99_us : float;
}

let get_req_type = 30
let scan_req_type = 31
let num_keys = 1_000_000
let key_width = 8
let scan_len = 128

let server_host = 0
let num_dispatch = 14
let num_workers = 2
let num_client_nodes = 8
let client_threads_per_node = 8

let populate () =
  let tree = Masstree.Tree.create () in
  (* Insert in a shuffled order so the tree shape is not worst-case. *)
  let rng = Sim.Rng.create 99L in
  let keys = Array.init num_keys Fun.id in
  for i = num_keys - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.iter
    (fun k ->
      Masstree.Tree.insert tree
        ~key:(Workload.Keygen.encode ~width:key_width k)
        ~value:(Workload.Keygen.encode ~width:key_width k))
    keys;
  tree

let register_handlers nx tree ~workers =
  let depth = Masstree.Tree.depth tree in
  Erpc.Nexus.register_handler nx ~req_type:get_req_type ~mode:Erpc.Nexus.Dispatch (fun h ->
      let key =
        Erpc.Msgbuf.read_string (Erpc.Req_handle.get_request h) ~off:0 ~len:key_width
      in
      Erpc.Req_handle.charge h (Masstree.Tree.lookup_cost_ns ~depth);
      let value =
        match Masstree.Tree.get tree ~key with Some v -> v | None -> String.make key_width '\000'
      in
      let resp = Erpc.Req_handle.init_response h ~size:key_width in
      Erpc.Msgbuf.write_string resp ~off:0 value;
      Erpc.Req_handle.enqueue_response h resp);
  let scan_mode = if workers then Erpc.Nexus.Worker else Erpc.Nexus.Dispatch in
  Erpc.Nexus.register_handler nx ~req_type:scan_req_type ~mode:scan_mode (fun h ->
      let key =
        Erpc.Msgbuf.read_string (Erpc.Req_handle.get_request h) ~off:0 ~len:key_width
      in
      Erpc.Req_handle.charge h (Masstree.Tree.scan_cost_ns ~depth ~n:scan_len);
      let sum =
        List.fold_left
          (fun acc (_, v) -> acc + int_of_string v)
          0
          (Masstree.Tree.scan tree ~start:key ~n:scan_len)
      in
      let resp = Erpc.Req_handle.init_response h ~size:8 in
      Erpc.Msgbuf.set_u64 resp ~off:0 sum;
      Erpc.Req_handle.enqueue_response h resp)

(* The request hook: a random key, and one request in a hundred is a
   scan (kind 1). *)
let prepare rng (op : Obs.Op.t) req =
  Erpc.Msgbuf.write_string req ~off:0
    (Workload.Keygen.encode ~width:key_width (Sim.Rng.int rng num_keys));
  if Sim.Rng.int rng 100 = 0 then begin
    op.kind <- 1;
    scan_req_type
  end
  else get_req_type

let payload = Harness.Echo { req_size = key_width; resp_size = 8 }

let warmup_ms = 1.0
let measure_ms = 3.0

let run ?seed ?(workers = true) () =
  let nodes = 1 + num_client_nodes in
  let cluster = Transport.Cluster.cx3 ~nodes () in
  let d =
    Harness.deploy ?seed ~workers_per_host:num_workers cluster ~threads_per_host:num_dispatch
  in
  let tree = populate () in
  register_handlers d.nexuses.(server_host) tree ~workers;
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let latencies = [| Stats.Hist.create (); Stats.Hist.create () |] in
  let drivers =
    Array.init (num_client_nodes * client_threads_per_node) (fun i ->
        let rpc = d.rpcs.(1 + (i / client_threads_per_node)).(i mod client_threads_per_node) in
        let sess =
          Harness.connect d rpc ~remote_host:server_host ~remote_rpc_id:(i mod num_dispatch)
        in
        (* Two outstanding requests per client (§7.2). *)
        Harness.driver ~latencies ~engine ~slots:2
          (Closed { batch = 1; count = max_int })
          (Harness.erpc_send ~payload ~prepare:(prepare (Sim.Rng.split rng))
             [| (rpc, sess) |]))
  in
  Array.iter Harness.start_driver drivers;
  Harness.run_ms d warmup_ms;
  Array.iter Stats.Hist.clear latencies;
  Harness.run_ms d measure_ms;
  let get_hist = latencies.(0) and scan_hist = latencies.(1) in
  {
    gets_per_sec_m = float_of_int (Stats.Hist.count get_hist) /. (measure_ms *. 1e3);
    get_p50_us = Harness.us_at get_hist 50.;
    get_p99_us = Harness.us_at get_hist 99.;
    scan_p99_us = Harness.us_at scan_hist 99.;
  }

let low_load_median_us ?seed () =
  let cluster = Transport.Cluster.cx3 ~nodes:2 () in
  let d = Harness.deploy ?seed ~workers_per_host:num_workers cluster ~threads_per_host:1 in
  let tree = populate () in
  register_handlers d.nexuses.(server_host) tree ~workers:true;
  let engine = Erpc.Fabric.engine d.fabric in
  let client = d.rpcs.(1).(0) in
  let sess = Harness.connect d client ~remote_host:server_host ~remote_rpc_id:0 in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let drv =
    Harness.driver ~engine ~slots:1
      (Closed { batch = 1; count = 2_000 })
      (Harness.erpc_send ~payload
         ~prepare:(fun _ req ->
           Erpc.Msgbuf.write_string req ~off:0
             (Workload.Keygen.encode ~width:key_width (Sim.Rng.int rng num_keys));
           get_req_type)
         [| (client, sess) |])
  in
  Harness.start_driver drv;
  Harness.run_ms d 50.0;
  Harness.us_at (Harness.driver_tally drv).lat.(0) 50.
