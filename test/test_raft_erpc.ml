(* Integration tests: the sharded replicated-KV service (§7.1) — Raft
   groups over eRPC behind the smart client's redirect/retry loop. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup () =
  let cluster = Transport.Cluster.cx5 ~nodes:4 () in
  let d = Experiments.Harness.deploy cluster ~threads_per_host:1 in
  let map = Service.Shard_map.create ~shards:1 ~replication:3 ~replica_hosts:[| 0; 1; 2 |] in
  let replicas =
    Array.map
      (fun host ->
        Service.Replica.create ~fabric:d.fabric ~nexus:d.nexuses.(host)
          ~rpc:d.rpcs.(host).(0) ~map ~host ())
      [| 0; 1; 2 |]
  in
  let deadline = ref 100 in
  while
    (not (Array.exists (fun r -> Service.Replica.is_leader r ~shard:0) replicas))
    && !deadline > 0
  do
    Experiments.Harness.run_ms d 5.0;
    decr deadline
  done;
  check_bool "leader elected" true
    (Array.exists (fun r -> Service.Replica.is_leader r ~shard:0) replicas);
  (d, map, replicas)

let leader_of replicas =
  match Array.find_opt (fun r -> Service.Replica.is_leader r ~shard:0) replicas with
  | Some r -> r
  | None -> Alcotest.fail "no leader"

let value_of s = s ^ String.make (Service.Kv_proto.value_size - String.length s) '\000'

(* Raw request straight at one replica, bypassing the smart client — for
   asserting on the wire-visible status codes. *)
let raw_put d client sess ~client_id ~seq ~key ~value =
  let req = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.req_size in
  Service.Kv_proto.write_request req
    { Service.Kv_proto.op = Service.Kv_proto.Put; shard = 0; client_id; seq; key; value };
  let resp = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.resp_max_size in
  let status = ref None in
  Erpc.Rpc.enqueue_request client sess ~req_type:Service.Kv_proto.kv_req_type ~req ~resp
    ~cont:(fun r ->
      if Result.is_ok r then status := Some (fst (Service.Kv_proto.read_response resp)));
  Experiments.Harness.run_ms d 10.0;
  !status

let test_put_replicates_to_all () =
  let d, map, replicas = setup () in
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  let key = Workload.Keygen.encode 1 in
  let value = value_of "x" in
  let acked = ref false in
  ignore
    (Service.Kv_client.put client ~key ~value ~deadline_ns:50_000_000 ~cont:(fun r ->
         acked := Result.is_ok r));
  Experiments.Harness.run_ms d 20.0;
  check_bool "put acked" true !acked;
  (* Followers apply once the next heartbeat carries the commit index. *)
  Array.iter
    (fun r ->
      check_bool "replica has the key" true
        (Mica.Store.get (Service.Replica.store r ~shard:0) ~key = Some value))
    replicas;
  Array.iter Service.Replica.stop replicas

let test_put_to_follower_redirects () =
  let d, _map, replicas = setup () in
  let leader_host = Service.Replica.host (leader_of replicas) in
  let follower =
    match
      Array.find_opt (fun r -> not (Service.Replica.is_leader r ~shard:0)) replicas
    with
    | Some r -> r
    | None -> Alcotest.fail "no follower"
  in
  let client = d.rpcs.(3).(0) in
  let sess =
    Experiments.Harness.connect d client
      ~remote_host:(Service.Replica.host follower)
      ~remote_rpc_id:0
  in
  let key = Workload.Keygen.encode 2 in
  (match raw_put d client sess ~client_id:1 ~seq:0 ~key ~value:(value_of "y") with
  | Some (Service.Kv_proto.Not_leader hint) ->
      (* A settled follower knows who leads and says so. *)
      check_int "redirect names the leader" leader_host
        (Option.value hint ~default:(-1))
  | s ->
      Alcotest.failf "expected Not_leader, got %s"
        (match s with
        | None -> "no response"
        | Some Service.Kv_proto.Ok_ -> "Ok"
        | Some (Service.Kv_proto.Retry _) -> "Retry"
        | Some Service.Kv_proto.Not_found -> "Not_found"
        | Some (Service.Kv_proto.Not_leader _) -> "?"));
  Array.iter Service.Replica.stop replicas

(* Phase tags: a fresh client's first operation waits on its session
   handshake, and an operation whose leader hint names a follower follows
   one redirect to the leader. *)
let test_op_phase_tags () =
  let d, map, replicas = setup () in
  let leader_host = Service.Replica.host (leader_of replicas) in
  let follower_host =
    List.find (fun h -> h <> leader_host) (Array.to_list (Service.Shard_map.group map ~shard:0))
  in
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  let get ~hint =
    Service.Shard_map.set_leader_hint map ~shard:0 ~host:hint;
    let record = Obs.Op.create ~id:0 ~source:0 ~issued_ns:0 in
    let ok = ref false in
    ignore
      (Service.Kv_client.get ~record client ~key:(Workload.Keygen.encode 5)
         ~deadline_ns:50_000_000 ~cont:(fun r -> ok := Result.is_ok r));
    Experiments.Harness.run_ms d 5.0;
    check_bool "get completes" true !ok;
    record
  in
  let first = get ~hint:leader_host in
  check_int "first op waits on the handshake" 1 first.connect_waits;
  check_int "first op: no redirect" 0 first.redirects;
  let redirected = get ~hint:follower_host in
  check_int "redirect followed" 1 redirected.redirects;
  check_int "no backoff" 0 (redirected.election_backoffs + redirected.error_backoffs);
  Array.iter Service.Replica.stop replicas

let test_many_puts_sequential_consistency () =
  let d, map, replicas = setup () in
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  (* Repeatedly overwrite one key; all replicas must end at the final
     value (log order = commit order). *)
  let key = Workload.Keygen.encode 7 in
  let remaining = ref 50 in
  let rec issue i =
    if i <= 50 then
      ignore
        (Service.Kv_client.put client ~key
           ~value:(value_of (Printf.sprintf "%d" i))
           ~deadline_ns:50_000_000
           ~cont:(fun _ ->
             decr remaining;
             issue (i + 1)))
  in
  issue 1;
  let budget = ref 200 in
  while !remaining > 0 && !budget > 0 do
    Experiments.Harness.run_ms d 1.0;
    decr budget
  done;
  check_int "all puts acked" 0 !remaining;
  Experiments.Harness.run_ms d 20.0;
  let final = value_of "50" in
  Array.iter
    (fun r ->
      check_bool "final value everywhere" true
        (Mica.Store.get (Service.Replica.store r ~shard:0) ~key = Some final))
    replicas;
  let leader = leader_of replicas in
  check_bool "committed everything" true
    (Raft.Core.commit_index (Service.Replica.raft leader ~shard:0) >= 50);
  Array.iter Service.Replica.stop replicas

let test_duplicate_seq_applies_once () =
  let d, _map, replicas = setup () in
  let leader = leader_of replicas in
  let applies = ref 0 in
  Array.iter
    (fun r ->
      Service.Replica.set_on_apply r
        (fun ~shard:_ ~incarnation:_ ~client_id ~seq:_ ->
          if client_id = 9 then incr applies))
    replicas;
  let client = d.rpcs.(3).(0) in
  let sess =
    Experiments.Harness.connect d client ~remote_host:(Service.Replica.host leader)
      ~remote_rpc_id:0
  in
  let key = Workload.Keygen.encode 3 in
  (* The same (client_id, seq) put twice — a retry of an already-committed
     write. The second submission must be re-acked without re-applying. *)
  check_bool "first put acked" true
    (raw_put d client sess ~client_id:9 ~seq:0 ~key ~value:(value_of "z")
    = Some Service.Kv_proto.Ok_);
  check_bool "duplicate re-acked" true
    (raw_put d client sess ~client_id:9 ~seq:0 ~key ~value:(value_of "z")
    = Some Service.Kv_proto.Ok_);
  Experiments.Harness.run_ms d 10.0;
  (* 3 replicas x 1 effective apply; the duplicate hit the dedup table. *)
  check_int "applied once per replica" 3 !applies;
  check_bool "leader counted the dedup hit" true
    (Service.Replica.dedup_hits leader >= 1);
  Array.iter Service.Replica.stop replicas

let test_leader_crash_failover () =
  let d, map, replicas = setup () in
  let old_leader = leader_of replicas in
  let old_host = Service.Replica.host old_leader in
  let client =
    Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3).(0) ~map ~client_id:1 ()
  in
  (* Seed the leader hint so the first post-crash attempt hits the corpse. *)
  Service.Shard_map.set_leader_hint map ~shard:0 ~host:old_host;
  Erpc.Fabric.crash_host d.fabric old_host ~down_ns:60_000_000;
  let key = Workload.Keygen.encode 4 in
  let value = value_of "failover" in
  let acked = ref false in
  ignore
    (Service.Kv_client.put client ~key ~value ~deadline_ns:100_000_000 ~cont:(fun r ->
         acked := Result.is_ok r));
  let budget = ref 120 in
  while (not !acked) && !budget > 0 do
    Experiments.Harness.run_ms d 1.0;
    decr budget
  done;
  check_bool "put survives leader crash" true !acked;
  let survivors =
    Array.to_list replicas
    |> List.filter (fun r -> Service.Replica.host r <> old_host)
  in
  check_bool "new leader is a survivor" true
    (List.exists (fun r -> Service.Replica.is_leader r ~shard:0) survivors);
  Experiments.Harness.run_ms d 20.0;
  List.iter
    (fun r ->
      check_bool "survivor has the key" true
        (Mica.Store.get (Service.Replica.store r ~shard:0) ~key = Some value))
    survivors;
  check_bool "client retried" true (Service.Kv_client.retries client >= 1);
  Array.iter Service.Replica.stop replicas

let suite =
  [
    Alcotest.test_case "PUT replicates to all" `Quick test_put_replicates_to_all;
    Alcotest.test_case "PUT to follower redirects to leader" `Quick
      test_put_to_follower_redirects;
    Alcotest.test_case "op phase tags" `Quick test_op_phase_tags;
    Alcotest.test_case "sequential overwrites converge" `Quick
      test_many_puts_sequential_consistency;
    Alcotest.test_case "duplicate seq applies once" `Quick test_duplicate_seq_applies_once;
    Alcotest.test_case "leader crash fails over" `Quick test_leader_crash_failover;
  ]
