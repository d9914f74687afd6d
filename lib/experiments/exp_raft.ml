type result = {
  client_p50_us : float;
  client_p99_us : float;
  leader_p50_us : float;
  leader_p99_us : float;
  puts : int;
  errors : int;
}

let num_keys = 1_000_000
let deadline_ns = 50_000_000

let run ?seed ?(samples = 3_000) () =
  let cluster = Transport.Cluster.cx5 ~nodes:4 () in
  let d = Harness.deploy ?seed cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let map =
    Service.Shard_map.create ~shards:1 ~replication:3 ~replica_hosts:[| 0; 1; 2 |]
  in
  let replicas, elected = Harness.start_replicas d ~map in
  if not elected then failwith "Exp_raft: no leader elected";
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  let value = String.make Service.Kv_proto.value_size 'v' in
  let errors = ref 0 in
  let remaining = ref samples in
  let rec issue () =
    if !remaining > 0 then begin
      decr remaining;
      let key = Workload.Keygen.encode (Sim.Rng.int rng num_keys) in
      ignore
        (Service.Kv_client.put client ~key ~value ~deadline_ns ~cont:(fun r ->
             (match r with Ok () -> () | Error _ -> incr errors);
             issue ()))
    end
  in
  issue ();
  let budget = ref 4_000 in
  while !remaining > 0 && !budget > 0 do
    Harness.run_ms d 1.0;
    decr budget
  done;
  let hist = Service.Kv_client.latencies client in
  let puts = Stats.Hist.count hist in
  (* An all-error run used to fall out of here as a silently empty
     histogram; refuse to report nonsense. *)
  if puts = 0 then failwith "Exp_raft: every PUT failed";
  let commit = Stats.Hist.create () in
  Array.iter
    (fun r -> Stats.Hist.merge ~dst:commit ~src:(Service.Replica.commit_latencies r))
    replicas;
  Array.iter Service.Replica.stop replicas;
  {
    client_p50_us = float_of_int (Stats.Hist.median hist) /. 1e3;
    client_p99_us = float_of_int (Stats.Hist.percentile hist 99.) /. 1e3;
    leader_p50_us = float_of_int (Stats.Hist.median commit) /. 1e3;
    leader_p99_us = float_of_int (Stats.Hist.percentile commit 99.) /. 1e3;
    puts;
    errors = !errors;
  }
