(* kv-service: the steady-poisson tenant mix at fixed offered load, open
   loop. 16 Poisson sources x 2.5 krps of 50/50 GET/PUT over 4096 uniform
   keys go to 4 three-way Raft shards on 6 replica hosts; beside them 16
   sources x 2.5 krps of 32 B echo to 2 echo servers, all from 4 client
   hosts. On the CX4 fabric with 6 hosts per ToR, the replicas share
   ToR 0, the clients sit on ToR 1 and the echo servers on ToR 2: every
   client request crosses the spine, every Raft message stays in the
   rack, so which replica wins each election does not change any path
   length.

   Latency is over every client op of the workload (KV and echo): with a
   50/50 GET/PUT mix alone the median sits in the gap between the GET and
   PUT modes and flips between them from seed to seed. GET and PUT tails
   are reported per layer. *)

open Common

let nodes = 26
let replica_hosts = [| 0; 1; 2; 3; 4; 5 |]
let echo_hosts = [| 12; 13 |]
let client_hosts = [| 8; 9; 10; 11 |]
let shards = 4
let replication = 3
let sources = 16
let rate_rps = 2_500.
let num_keys = 4096
let max_outstanding = 256
let echo_size = 32
let echo_req_type = 16
let deadline_ns = 20_000_000
let slice_ns = 1_000_000
let warmup_ns ~quick = if quick then 5_000_000 else 20_000_000
let horizon_ns ~quick = if quick then 20_000_000 else 300_000_000
let settle_ns = 30_000_000
let trace_capacity ~quick = if quick then 1 lsl 20 else 1 lsl 22

let run ~seed ~quick ~traced =
  let cpu0 = Speed.cpu_s () in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let trace = make_trace ~traced ~capacity:(trace_capacity ~quick) in
  let d = Experiments.Harness.deploy ~seed ?trace cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  let now () = Sim.Engine.now engine in
  let rpc h = d.rpcs.(h).(0) in
  let map = Service.Shard_map.create ~shards ~replication ~replica_hosts in
  let replicas =
    Array.map
      (fun host ->
        Service.Replica.create ~fabric:d.fabric ~nexus:d.nexuses.(host) ~rpc:(rpc host) ~map
          ~host ())
      replica_hosts
  in
  (* Exactly-once bookkeeping: effective applications per
     (replica host, client id, seq). *)
  let applied = Hashtbl.create 65536 in
  Array.iter
    (fun r ->
      let host = Service.Replica.host r in
      Service.Replica.set_on_apply r (fun ~shard:_ ~incarnation:_ ~client_id ~seq ->
          let k = (host, client_id, seq) in
          Hashtbl.replace applied k (1 + Option.value (Hashtbl.find_opt applied k) ~default:0)))
    replicas;
  Array.iter
    (fun h -> register_echo ~req_type:echo_req_type ~resp_size:echo_size d.nexuses.(h))
    echo_hosts;
  (* Bootstrap: every shard elects a leader, every echo session connects. *)
  let all_elected () =
    List.for_all
      (fun shard -> Array.exists (fun r -> Service.Replica.is_leader r ~shard) replicas)
      (List.init shards Fun.id)
  in
  let budget = ref 100 in
  while (not (all_elected ())) && !budget > 0 do
    Experiments.Harness.run_ms d 5.0;
    decr budget
  done;
  if not (all_elected ()) then violate "kv-service: not every shard elected a leader";
  let endpoints =
    List.concat_map
      (fun ch ->
        List.filter_map
          (fun eh ->
            match Experiments.Harness.connect d (rpc ch) ~remote_host:eh ~remote_rpc_id:0 with
            | s -> Some (rpc ch, s)
            | exception Failure e ->
                violate "kv-service: echo session %d->%d: %s" ch eh e;
                None)
          (Array.to_list echo_hosts))
      (Array.to_list client_hosts)
    |> Array.of_list
  in
  let pool =
    Service.Client_pool.create ~fabric:d.fabric ~map ~rpcs:(Array.map rpc client_hosts)
      ~base_client_id:1 ~clients_per_rpc:1 ()
  in
  let pool_size = Service.Client_pool.size pool in
  let keygen = Workload.Keygen.uniform ~n:num_keys in
  let krng = Sim.Rng.split (Sim.Engine.rng engine) in
  let t0 = now () in
  let measure_from = t0 + warmup_ns ~quick in
  let measure_to = measure_from + horizon_ns ~quick in
  (* Operation accounting. An op is measured when it is due inside the
     timed window; its latency runs from its due time. *)
  let next_op = ref 0 and kv_calls = ref 0 in
  let attempted = ref 0 and failed = ref 0 and ops = ref 0 and bytes = ref 0 in
  let outstanding = ref 0 and kv_out = ref 0 in
  let kv_lat = Vec.create () and get_lat = Vec.create () and put_lat = Vec.create () in
  let echo_lat = Vec.create () and all_lat = Vec.create () in
  let acked_puts = ref [] and bad_gets = ref 0 in
  let finish ~due ~measured ~ok ~nbytes lats =
    decr outstanding;
    if measured then
      if ok then begin
        incr ops;
        bytes := !bytes + nbytes;
        let l = now () - due in
        List.iter (fun v -> Vec.push v l) lats
      end
      else incr failed
  in
  let kv_bytes = Service.Kv_proto.key_size + Service.Kv_proto.value_size in
  let kv_arrival ~due ~measured =
    if !kv_out >= max_outstanding then (if measured then incr failed)
    else begin
      incr next_op;
      let op = !next_op in
      incr outstanding;
      incr kv_out;
      let key =
        Spans.span sp_generator ~op (fun () ->
            Workload.Keygen.encode (Workload.Keygen.next_at keygen krng ~now_ns:(due - t0)))
      in
      let client = Service.Client_pool.next_client pool in
      (* [Client_pool] hands out its clients round-robin, with ids
         1 .. pool_size in that order. *)
      let client_id = 1 + (!kv_calls mod pool_size) in
      incr kv_calls;
      if Sim.Rng.int krng 100 < 50 then
        Spans.span sp_kv_get ~op (fun () ->
            ignore
              (Service.Kv_client.get client ~key ~deadline_ns ~cont:(fun r ->
                   Spans.span sp_continuation ~op (fun () ->
                       decr kv_out;
                       (match r with
                       | Ok (Some v)
                         when not (String.starts_with ~prefix:(key ^ "=") v) ->
                           incr bad_gets
                       | _ -> ());
                       finish ~due ~measured ~ok:(Result.is_ok r) ~nbytes:kv_bytes
                         [ all_lat; kv_lat; get_lat ]))
                : int))
      else begin
        let seq = ref (-1) in
        let value = Printf.sprintf "%s=%d" key op in
        Spans.span sp_kv_put ~op (fun () ->
            seq :=
              Service.Kv_client.put client ~key ~value ~deadline_ns ~cont:(fun r ->
                  Spans.span sp_continuation ~op (fun () ->
                      decr kv_out;
                      if Result.is_ok r then acked_puts := (key, client_id, !seq) :: !acked_puts;
                      finish ~due ~measured ~ok:(Result.is_ok r) ~nbytes:kv_bytes
                        [ all_lat; kv_lat; put_lat ])))
      end
    end
  in
  let echo_bufs =
    ref
      (List.init max_outstanding (fun _ ->
           (Erpc.Msgbuf.alloc ~max_size:echo_size, Erpc.Msgbuf.alloc ~max_size:echo_size)))
  in
  let cursor = ref 0 in
  let echo_arrival ~due ~measured =
    match !echo_bufs with
    | [] -> if measured then incr failed
    | (req, resp) :: rest ->
        echo_bufs := rest;
        incr next_op;
        let op = !next_op in
        incr outstanding;
        Erpc.Msgbuf.resize req echo_size;
        let r, sess = endpoints.(!cursor) in
        cursor := (!cursor + 1) mod Array.length endpoints;
        Spans.span sp_enqueue ~op (fun () ->
            Erpc.Rpc.enqueue_request r sess ~req_type:echo_req_type ~req ~resp ~cont:(fun res ->
                Spans.span sp_continuation ~op (fun () ->
                    echo_bufs := (req, resp) :: !echo_bufs;
                    finish ~due ~measured ~ok:(Result.is_ok res) ~nbytes:(2 * echo_size)
                      [ all_lat; echo_lat ])))
  in
  (* Open-loop sources: each walks its own arrival stream from t0 and
     fires whether or not earlier operations completed. *)
  let start_source fire =
    let arr =
      Workload.Arrival.make (Workload.Arrival.Poisson { rate_rps })
        ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
    in
    let rec arm rel =
      let next =
        Spans.span sp_generator ~op:0 (fun () -> Workload.Arrival.next_after arr ~now_ns:rel)
      in
      let due = t0 + next in
      if due < measure_to then
        Sim.Engine.schedule engine due (fun () ->
            Spans.span sp_arrival ~op:0 (fun () ->
                let measured = due >= measure_from in
                if measured then incr attempted;
                fire ~due ~measured;
                arm next))
    in
    arm 0
  in
  for _ = 1 to sources do
    start_source kv_arrival
  done;
  if Array.length endpoints > 0 then
    for _ = 1 to sources do
      start_source echo_arrival
    done;
  Experiments.Harness.run_ms d (float_of_int (warmup_ns ~quick) /. 1e6);
  let setup_s = Speed.cpu_s () -. cpu0 in
  (* Timed phase: the measured window, then until every op is done. *)
  let client_rpcs = Array.to_list (Array.map rpc client_hosts) in
  let server_rpcs = List.map rpc (Array.to_list replica_hosts @ Array.to_list echo_hosts) in
  let rtt = rtt_probe client_rpcs in
  List.iter (fun r -> Sim.Cpu.reset_stats (Erpc.Rpc.cpu r)) (client_rpcs @ server_rpcs);
  let sl = slicer () in
  let c0 = counters d in
  run_slices sl engine ~until:measure_to ~slice_ns;
  let util_client = cpu_util client_rpcs and util_server = cpu_util server_rpcs in
  let drain_cap = measure_to + (2 * deadline_ns) in
  while !outstanding > 0 && now () < drain_cap do
    run_slices sl engine ~until:(now () + slice_ns) ~slice_ns
  done;
  let c1 = counters d in
  if !outstanding > 0 then violate "kv-service: %d operations never completed" !outstanding;
  (* Settle: heartbeats carry the final commit index to followers. *)
  Experiments.Harness.run_ms d (float_of_int settle_ns /. 1e6);
  for shard = 0 to shards - 1 do
    let commits =
      Array.to_list replicas
      |> List.filter (fun r -> List.mem shard (Service.Replica.shards r))
      |> List.map (fun r -> Raft.Core.commit_index (Service.Replica.raft r ~shard))
    in
    if List.length (List.sort_uniq compare commits) <> 1 then
      violate "kv-service: shard %d commit indexes did not converge" shard
  done;
  (* Exactly once: every acked PUT applied once at every replica of its
     shard. *)
  let missing = ref 0 and doubled = ref 0 in
  List.iter
    (fun (key, client_id, seq) ->
      let shard = Service.Shard_map.shard_of_key map ~key in
      Array.iter
        (fun h ->
          match Hashtbl.find_opt applied (h, client_id, seq) with
          | Some 1 -> ()
          | Some _ -> incr doubled
          | None -> incr missing)
        (Service.Shard_map.group map ~shard))
    !acked_puts;
  if !missing > 0 then violate "kv-service: %d acked PUT applications missing" !missing;
  if !doubled > 0 then violate "kv-service: %d acked PUTs applied more than once" !doubled;
  if !bad_gets > 0 then violate "kv-service: %d GETs returned another key's value" !bad_gets;
  Array.iter Service.Replica.stop replicas;
  let ops = !ops and failed = !failed in
  let kv = Vec.sorted kv_lat and gets = Vec.sorted get_lat and puts = Vec.sorted put_lat in
  let echo = Vec.sorted echo_lat and all = Vec.sorted all_lat in
  if (not quick) && beyond all 99.9 < 10 then
    violate "kv-service: only %d samples beyond P99.9" (beyond all 99.9);
  let horizon_s = float_of_int (horizon_ns ~quick) /. 1e9 in
  let sim =
    [
      m "sim_mrps" "Mrps"
        (float_of_int ops /. horizon_s /. float_of_int (Array.length client_hosts) /. 1e6);
      m "sim_goodput_gbps" "Gbps" (float_of_int (!bytes * 8) /. float_of_int (horizon_ns ~quick));
    ]
    @ latency_metrics all
  in
  let commit = Stats.Hist.create () in
  Array.iter
    (fun r -> Stats.Hist.merge ~dst:commit ~src:(Service.Replica.commit_latencies r))
    replicas;
  let sum f = Array.fold_left (fun a r -> a + f r) 0 replicas in
  let kv_ok = Service.Client_pool.ok pool and retries = Service.Client_pool.retries pool in
  let us ns = float_of_int ns /. 1e3 in
  let layers =
    sim_layers (delta c1 c0) ~buffer_peak_kb:(buffer_peak_kb d) ~ops
    @ [
        m "erpc.client_cpu_util" "frac" util_client;
        m "erpc.server_cpu_util" "frac" util_server;
        m "erpc.echo_p99_us" "us" (us (pct echo 99.));
        mi "sim.latency_samples" "count" (Array.length all);
        m "failed_frac" "frac" (ratio failed !attempted);
      ]
    @ rtt_metrics rtt
    @ [
        mi "service.retries" "count" retries;
        mi "service.redirects" "count" (Service.Client_pool.redirects pool);
        mi "service.deadline_exceeded" "count" (Service.Client_pool.deadline_exceeded pool);
        mi "service.dedup_hits" "count" (sum Service.Replica.dedup_hits);
        mi "service.raft_drops" "count" (sum Service.Replica.raft_drops);
        m "service.useful_frac" "frac" (ratio kv_ok (kv_ok + retries));
        m "service.get_p99_us" "us" (us (pct gets 99.));
        m "service.put_p99_us" "us" (us (pct puts 99.));
        m "raft.commit_p50_us" "us" (us (hist_pct commit 50.));
        m "raft.commit_p99_us" "us" (us (hist_pct commit 99.));
      ]
  in
  let is_client h = Array.mem h client_hosts in
  let traced_layers, anatomy_violations =
    anatomy_metrics ~traced
      (anatomy ~cluster ~trace ~client_host:is_client)
      ~client_rpcs:
        (List.fold_left
           (fun a r -> a + (Erpc.Rpc.stats r).Erpc.Rpc_stats.completed)
           0 client_rpcs)
  in
  let stores =
    Array.map
      (fun r ->
        List.map
          (fun shard -> Mica.Store.size (Service.Replica.store r ~shard))
          (Service.Replica.shards r))
      replicas
  in
  {
    setup_s;
    timed_s = c1.cpu_s -. c0.cpu_s;
    ops;
    attempted = !attempted;
    failed;
    sim;
    layers;
    traced_layers;
    host_layers = host_layers (delta c1 c0) ~depth_max:sl.depth_max ~arrivals:!attempted;
    digest = end_digest d (kv, echo, stores, Hashtbl.length applied);
    violations = List.rev !violations @ anatomy_violations;
    notes =
      [
        latency_note "latency of all ops (from due time)" all;
        latency_note "KV latency (GET+PUT)" kv;
        latency_note "GET latency" gets;
        latency_note "PUT latency" puts;
        latency_note "echo latency" echo;
        Printf.sprintf
          "raft.commit p50 %.3fus p99 %.3fus over %d commits (paper Table 6: 3.1 / 3.4 us)"
          (us (hist_pct commit 50.)) (us (hist_pct commit 99.)) (Stats.Hist.count commit);
      ];
  }
