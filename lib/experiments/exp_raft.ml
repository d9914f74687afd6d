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
  let drv =
    Harness.driver ~engine ~slots:1
      (Closed { batch = 1; count = samples })
      (fun _ k ->
        let key = Workload.Keygen.encode (Sim.Rng.int rng num_keys) in
        ignore
          (Service.Kv_client.put client ~key ~value ~deadline_ns ~cont:(fun r ->
               k (Harness.ok_or_failed r))))
  in
  Harness.start_driver drv;
  Harness.run_driver ~max_slices:4_000 d drv ~slice_ms:1.0;
  let tally = Harness.driver_tally drv in
  let hist = tally.lat.(0) and puts = tally.ok in
  (* An all-error run used to fall out of here as a silently empty
     histogram; refuse to report nonsense. *)
  if puts = 0 then failwith "Exp_raft: every PUT failed";
  let commit = Harness.merged (Array.map Service.Replica.commit_latencies replicas) in
  Array.iter Service.Replica.stop replicas;
  {
    client_p50_us = Harness.us_at hist 50.;
    client_p99_us = Harness.us_at hist 99.;
    leader_p50_us = Harness.us_at commit 50.;
    leader_p99_us = Harness.us_at commit 99.;
    puts;
    errors = tally.failed;
  }
