(* Replicated key-value store: sharded Raft groups over eRPC (§7.1).

   Builds the failover KV service on a CX5-like cluster: three replica
   hosts carry two 3-way replicated Raft groups, with eRPC as the only
   transport (the Raft module itself is used unmodified — exactly the
   paper's LibRaft port). A smart client routes each PUT to the right
   shard's leader, following redirects and retrying under a deadline;
   mid-run the example crashes the leader of shard 0 to show failover.

   Run with: dune exec examples/kv_replication.exe *)

let () =
  let cluster = Transport.Cluster.cx5 ~nodes:4 () in
  let d = Experiments.Harness.deploy cluster ~threads_per_host:1 in
  let map = Service.Shard_map.create ~shards:2 ~replication:3 ~replica_hosts:[| 0; 1; 2 |] in
  let replicas =
    Array.map
      (fun host ->
        Service.Replica.create ~fabric:d.fabric ~nexus:d.nexuses.(host)
          ~rpc:d.rpcs.(host).(0) ~map ~host ())
      [| 0; 1; 2 |]
  in

  (* Wait until every shard has elected. *)
  let all_elected () =
    List.for_all
      (fun shard ->
        Array.exists (fun r -> Service.Replica.is_leader r ~shard) replicas)
      [ 0; 1 ]
  in
  let rec wait_leaders tries =
    if all_elected () then ()
    else if tries = 0 then failwith "no leader elected"
    else begin
      Experiments.Harness.run_ms d 5.0;
      wait_leaders (tries - 1)
    end
  in
  wait_leaders 100;
  List.iter
    (fun shard ->
      Array.iter
        (fun r ->
          if Service.Replica.is_leader r ~shard then
            Printf.printf "shard %d led by host %d (term %d)\n" shard
              (Service.Replica.host r)
              (Raft.Core.term (Service.Replica.raft r ~shard)))
        replicas)
    [ 0; 1 ];

  (* Smart client on host 3 issues replicated PUTs across both shards. *)
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let n_puts = 1_000 in
  let acked = ref 0 and failed = ref 0 in
  let hist = Stats.Hist.create () in
  let crash_at = n_puts / 2 in
  let leader0 () =
    Array.find_opt (fun r -> Service.Replica.is_leader r ~shard:0) replicas
  in
  let rec put_loop i =
    if i < n_puts then begin
      (* Halfway through, kill shard 0's leader mid-stream: the client
         rides out the election with retries and redirects. *)
      if i = crash_at then begin
        match leader0 () with
        | Some r ->
            Printf.printf "crashing shard-0 leader (host %d) at PUT %d...\n"
              (Service.Replica.host r) i;
            Erpc.Fabric.crash_host d.fabric (Service.Replica.host r)
              ~down_ns:30_000_000
        | None -> ()
      end;
      let key = Workload.Keygen.encode i in
      let value = Printf.sprintf "%-64d" i in
      let issued = Sim.Engine.now engine in
      ignore
        (Service.Kv_client.put client ~key ~value ~deadline_ns:50_000_000
           ~cont:(fun r ->
             (match r with
             | Ok () ->
                 incr acked;
                 Stats.Hist.record hist (Sim.Engine.now engine - issued)
             | Error _ -> incr failed);
             put_loop (i + 1)))
    end
  in
  put_loop 0;
  Experiments.Harness.run_ms d 400.0;

  Printf.printf "replicated %d PUTs (%d failed): p50=%.1f us p99=%.1f us (paper: 5.5 / 6.3 us)\n"
    !acked !failed
    (float_of_int (Stats.Hist.median hist) /. 1e3)
    (float_of_int (Stats.Hist.percentile hist 99.) /. 1e3);
  Printf.printf "client retries=%d redirects=%d\n"
    (Service.Kv_client.retries client)
    (Service.Kv_client.redirects client);

  (* All replicas applied the same data per shard. *)
  Experiments.Harness.run_ms d 50.0;
  List.iter
    (fun shard ->
      let sizes =
        Array.to_list replicas
        |> List.map (fun r -> Mica.Store.size (Service.Replica.store r ~shard))
      in
      Printf.printf "shard %d stores: %s\n" shard
        (String.concat " " (List.map string_of_int sizes)))
    [ 0; 1 ];
  Array.iter Service.Replica.stop replicas;
  ignore (Sim.Engine.run engine)
