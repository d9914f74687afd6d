(* Randomized Raft safety testing: under random partitions, elections,
   message reordering/loss and client submissions, the core safety
   properties must hold:
   - election safety: at most one leader per term;
   - state-machine safety: no two nodes apply different commands at the
     same index;
   - apply order: every node applies indices 1,2,3,... with no gaps or
     duplicates;
   - commit monotonicity. *)

let check_bool = Alcotest.(check bool)

type world = {
  mutable nodes : string Raft.Core.t array;
  pending : (int * string Raft.Core.msg) Queue.t;
  applied : (int, (int * string) list ref) Hashtbl.t;  (* node -> newest-first *)
  leaders_by_term : (int, int) Hashtbl.t;  (* term -> leader id *)
  mutable reachable : bool array array;
}

let make_world n seed =
  let rng = Sim.Rng.create seed in
  let w =
    {
      nodes = [||];
      pending = Queue.create ();
      applied = Hashtbl.create 8;
      leaders_by_term = Hashtbl.create 8;
      reachable = Array.make_matrix n n true;
    }
  in
  w.nodes <-
    Array.init n (fun id ->
        Hashtbl.replace w.applied id (ref []);
        let peers = Array.of_list (List.filter (fun p -> p <> id) (List.init n Fun.id)) in
        Raft.Core.create ~id ~peers
          ~send:(fun dst msg ->
            if w.reachable.(id).(dst) then Queue.add (dst, msg) w.pending)
          ~apply:(fun index cmd ->
            let l = Hashtbl.find w.applied id in
            l := (index, cmd) :: !l)
          ~random:(fun bound -> Sim.Rng.int rng bound)
          ());
  w

let observe_leaders w =
  Array.iter
    (fun node ->
      if Raft.Core.role node = Raft.Core.Leader then begin
        let term = Raft.Core.term node in
        match Hashtbl.find_opt w.leaders_by_term term with
        | None -> Hashtbl.replace w.leaders_by_term term (Raft.Core.id node)
        | Some other ->
            if other <> Raft.Core.id node then
              Alcotest.failf "two leaders in term %d: %d and %d" term other
                (Raft.Core.id node)
      end)
    w.nodes

(* Deliver up to [k] messages, possibly dropping some. *)
let deliver_some w rng k =
  let i = ref 0 in
  while (not (Queue.is_empty w.pending)) && !i < k do
    incr i;
    let dst, msg = Queue.take w.pending in
    if Sim.Rng.int rng 100 < 90 then Raft.Core.receive w.nodes.(dst) msg;
    observe_leaders w
  done

let random_partition w rng n =
  (* Either heal everything or cut a random bidirectional set. *)
  if Sim.Rng.int rng 3 = 0 then
    w.reachable <- Array.make_matrix n n true
  else begin
    let a = Sim.Rng.int rng n and b = Sim.Rng.int rng n in
    w.reachable.(a).(b) <- false;
    w.reachable.(b).(a) <- false
  end

let check_safety w =
  (* Collect applied sequences oldest-first and compare pairwise. *)
  let seqs =
    Hashtbl.fold (fun id l acc -> (id, List.rev !l) :: acc) w.applied []
  in
  List.iter
    (fun (id, seq) ->
      (* Gapless, duplicate-free, in order. *)
      List.iteri
        (fun i (index, _) ->
          if index <> i + 1 then
            Alcotest.failf "node %d applied index %d at position %d" id index i)
        seq)
    seqs;
  List.iter
    (fun (ida, sa) ->
      List.iter
        (fun (idb, sb) ->
          if ida < idb then
            List.iteri
              (fun i (index, cmd) ->
                match List.nth_opt sb i with
                | Some (index', cmd') ->
                    if index <> index' || cmd <> cmd' then
                      Alcotest.failf "divergence at index %d between nodes %d and %d" index
                        ida idb
                | None -> ())
              sa)
        seqs)
    seqs

let run_chaos ~seed ~steps ~n =
  let w = make_world n seed in
  let rng = Sim.Rng.create (Int64.add seed 1L) in
  let submitted = ref 0 in
  for _ = 1 to steps do
    (match Sim.Rng.int rng 10 with
    | 0 | 1 ->
        (* someone's election timer expires *)
        Raft.Core.periodic
          w.nodes.(Sim.Rng.int rng n)
          ~elapsed_ns:(Raft.Core.election_timeout_max_ns + 1)
    | 2 ->
        (* heartbeats *)
        Array.iter
          (fun node ->
            Raft.Core.periodic node ~elapsed_ns:(Raft.Core.heartbeat_ns + 1))
          w.nodes
    | 3 -> random_partition w rng n
    | 4 | 5 | 6 ->
        (* a client tries to submit at a random node *)
        incr submitted;
        ignore
          (Raft.Core.submit
             w.nodes.(Sim.Rng.int rng n)
             (Printf.sprintf "cmd-%d" !submitted))
    | _ -> deliver_some w rng (1 + Sim.Rng.int rng 20));
    observe_leaders w;
    check_safety w
  done;
  (* Heal and let the cluster converge; everything still safe. *)
  w.reachable <- Array.make_matrix n n true;
  for _ = 1 to 20 do
    Array.iter
      (fun node ->
        Raft.Core.periodic node ~elapsed_ns:(Raft.Core.heartbeat_ns + 1))
      w.nodes;
    deliver_some w rng 10_000
  done;
  check_safety w;
  (* Liveness after healing: some commands committed somewhere. *)
  Array.exists (fun node -> Raft.Core.commit_index node > 0) w.nodes

let test_chaos_3 () =
  let progressed = ref 0 in
  for seed = 1 to 30 do
    if run_chaos ~seed:(Int64.of_int seed) ~steps:300 ~n:3 then incr progressed
  done;
  check_bool "most seeds make progress" true (!progressed > 20)

let test_chaos_5 () =
  let progressed = ref 0 in
  for seed = 100 to 114 do
    if run_chaos ~seed:(Int64.of_int seed) ~steps:400 ~n:5 then incr progressed
  done;
  check_bool "most seeds make progress" true (!progressed > 8)

(* {2 Full-stack crash-restart during elections}

   The pure-core chaos above never exercises {!Erpc.Fabric.crash_host}:
   losing volatile state, dead sessions, and log catch-up on rejoin only
   exist in the deployed service. These tests aim crashes at the two most
   delicate moments — a candidate mid-election, and a freshly elected
   leader — and require the group to still elect, converge and serve. *)

let deploy_service () =
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
  (d, map, replicas)

let find_role d replicas role =
  Array.find_opt
    (fun r ->
      (not (Erpc.Fabric.host_dead d.Experiments.Harness.fabric (Service.Replica.host r)))
      && Raft.Core.role (Service.Replica.raft r ~shard:0) = role)
    replicas

let wait_for d replicas role ~budget_ms =
  let budget = ref (budget_ms * 2) in
  let found = ref (find_role d replicas role) in
  while !found = None && !budget > 0 do
    Experiments.Harness.run_us d 500.0;
    decr budget;
    found := find_role d replicas role
  done;
  !found

let wait_leader d replicas ~budget_ms =
  match wait_for d replicas Raft.Core.Leader ~budget_ms with
  | Some r -> r
  | None -> Alcotest.fail "no leader elected"

let put_and_check d map replicas ~key_id ~tag =
  let client =
    Service.Kv_client.create ~fabric:d.Experiments.Harness.fabric
      ~rpc:d.Experiments.Harness.rpcs.(3).(0) ~map ~client_id:5 ()
  in
  let key = Workload.Keygen.encode key_id in
  let value = tag ^ String.make (Service.Kv_proto.value_size - String.length tag) '\000' in
  let acked = ref false in
  ignore
    (Service.Kv_client.put client ~key ~value ~deadline_ns:100_000_000 ~cont:(fun r ->
         acked := Result.is_ok r));
  let budget = ref 120 in
  while (not !acked) && !budget > 0 do
    Experiments.Harness.run_ms d 1.0;
    decr budget
  done;
  check_bool "post-chaos put acked" true !acked;
  (* Let commit propagate, then require full convergence. *)
  Experiments.Harness.run_ms d 30.0;
  Array.iter
    (fun r ->
      check_bool "replica caught up with the post-chaos write" true
        (Mica.Store.get (Service.Replica.store r ~shard:0) ~key = Some value))
    replicas

let test_crash_candidate_mid_election () =
  let d, map, replicas = deploy_service () in
  let leader = wait_leader d replicas ~budget_ms:500 in
  (* Kill the leader to force an election, then kill the first candidate
     the moment it appears: its votes are in flight, its log may be the
     longest in the group. *)
  Erpc.Fabric.crash_host d.fabric (Service.Replica.host leader) ~down_ns:50_000_000;
  (match wait_for d replicas Raft.Core.Candidate ~budget_ms:100 with
  | Some cand ->
      Erpc.Fabric.crash_host d.fabric (Service.Replica.host cand) ~down_ns:40_000_000
  | None -> Alcotest.fail "no candidate emerged after leader crash");
  (* With both crashes pending there may be < quorum until a restart;
     once hosts rejoin, a leader must emerge and serve. *)
  Experiments.Harness.run_ms d 120.0;
  ignore (wait_leader d replicas ~budget_ms:500);
  put_and_check d map replicas ~key_id:41 ~tag:"cand-crash";
  check_bool "a replica crash-restarted"
    true
    (Array.exists (fun r -> Service.Replica.restarts r >= 1) replicas);
  Array.iter Service.Replica.stop replicas

let test_crash_new_leader_after_election () =
  let d, map, replicas = deploy_service () in
  let leader = wait_leader d replicas ~budget_ms:500 in
  let first_host = Service.Replica.host leader in
  Erpc.Fabric.crash_host d.fabric first_host ~down_ns:60_000_000;
  (* The instant a successor wins, crash it too — its no-op barrier entry
     and any client traffic it accepted are at maximum risk. *)
  let successor = ref None in
  let budget = ref 400 in
  while !successor = None && !budget > 0 do
    Experiments.Harness.run_us d 500.0;
    decr budget;
    successor :=
      Array.find_opt
        (fun r ->
          Service.Replica.host r <> first_host
          && (not (Erpc.Fabric.host_dead d.fabric (Service.Replica.host r)))
          && Service.Replica.is_leader r ~shard:0)
        replicas
  done;
  (match !successor with
  | Some s -> Erpc.Fabric.crash_host d.fabric (Service.Replica.host s) ~down_ns:40_000_000
  | None -> Alcotest.fail "no successor elected after leader crash");
  Experiments.Harness.run_ms d 120.0;
  ignore (wait_leader d replicas ~budget_ms:500);
  put_and_check d map replicas ~key_id:42 ~tag:"succ-crash";
  Array.iter Service.Replica.stop replicas

let suite =
  [
    Alcotest.test_case "chaos: 3 nodes, 30 seeds" `Quick test_chaos_3;
    Alcotest.test_case "chaos: 5 nodes, 15 seeds" `Quick test_chaos_5;
    Alcotest.test_case "full stack: crash candidate mid-election" `Quick
      test_crash_candidate_mid_election;
    Alcotest.test_case "full stack: crash new leader right after election" `Quick
      test_crash_new_leader_after_election;
  ]
