(* Domain-parallel simulation (Sim.Partition + Exp_par_sim + Par_sweep):
   the whole point of the PDES tier is that domain count is invisible in
   the results, so nearly every test here is an equality between a
   sequential and a parallel execution of the same seeded work.

   [ERPC_TEST_DOMAINS] (default 2) sets the parallel side, letting CI
   force the suite through a given domain count without editing tests. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let forced_domains =
  match Sys.getenv_opt "ERPC_TEST_DOMAINS" with
  | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* {2 Kernel: lookahead boundary and tie-breaks} *)

(* A message timestamped exactly [now + lookahead] — the tightest send the
   kernel admits — must be delivered, and must run before a local event at
   the same timestamp (messages win ties). *)
let run_boundary ~domains =
  let order = ref [] in
  let g : int Sim.Partition.t = Sim.Partition.create ~seed:7L ~parts:2 () in
  let la = 100 in
  Sim.Partition.connect g ~src:0 ~dst:1 ~lookahead:la;
  Sim.Partition.on_receive g 1 (fun ~ts ~src:_ payload ->
      order := Printf.sprintf "msg:%d@%d" payload ts :: !order);
  Sim.Engine.schedule (Sim.Partition.engine g 1) la (fun () ->
      order := Printf.sprintf "local@%d" (Sim.Engine.now (Sim.Partition.engine g 1)) :: !order);
  Sim.Engine.schedule (Sim.Partition.engine g 0) 0 (fun () ->
      Sim.Partition.send g ~src:0 ~dst:1 ~ts:la 42);
  (* A second message landing exactly on the run horizon must still be
     delivered (run is inclusive of the horizon, like Engine.run_until). *)
  Sim.Engine.schedule (Sim.Partition.engine g 0) 100 (fun () ->
      Sim.Partition.send g ~src:0 ~dst:1 ~ts:200 43);
  Sim.Partition.run ~domains ~horizon:200 g;
  (List.rev !order, Sim.Partition.messages_delivered g)

let test_lookahead_boundary () =
  let seq, delivered = run_boundary ~domains:1 in
  check_int "both boundary messages delivered" 2 delivered;
  Alcotest.(check (list string))
    "message at now+lookahead runs before the same-ts local event"
    [ "msg:42@100"; "local@100"; "msg:43@200" ]
    seq;
  let par, delivered_par = run_boundary ~domains:forced_domains in
  check_int "parallel run delivers the same messages" delivered delivered_par;
  Alcotest.(check (list string)) "parallel run executes the same order" seq par

(* {2 Trace merge: invariance to sharding}

   Obs.Trace.merge's contract: when every pid's event stream lives in
   exactly one shard, the merged digest does not depend on how pids were
   assigned to shards. Model an engine per shard by recording that
   shard's events in timestamp order (stable within a pid), which is
   exactly what a partitioned run produces. *)

let merged_digest_for ~nparts events =
  let shards = Array.init nparts (fun _ -> Obs.Trace.create ~capacity:4096 ()) in
  let per_shard = Array.make nparts [] in
  List.iter
    (fun ((pid, _, _) as e) ->
      let s = pid mod nparts in
      per_shard.(s) <- e :: per_shard.(s))
    events;
  Array.iteri
    (fun s evs ->
      (* Stable sort by ts only: per-pid relative order (generation order)
         survives, pids interleave by timestamp — an engine's record order. *)
      let arr = Array.of_list (List.rev evs) in
      Array.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) arr;
      Array.iter
        (fun (pid, ts, tag) ->
          Obs.Trace.instant shards.(s) ~ts ~cat:"q" ~name:(string_of_int tag) ~pid
            ~tid:0 [])
        arr)
    per_shard;
  Obs.Trace.merged_digest (Array.to_list shards)

let qcheck_merge_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"merged trace digest invariant to partition count"
       ~count:200
       QCheck2.Gen.(
         pair
           (list_size (int_range 0 120)
              (triple (int_range 0 7) (int_range 0 50) (int_range 0 1000)))
           (pair (int_range 1 6) (int_range 1 6)))
       (fun (events, (k1, k2)) ->
         merged_digest_for ~nparts:k1 events = merged_digest_for ~nparts:k2 events))

(* {2 End-to-end: par-bench golden digest} *)

(* The CI par-bench smoke configuration ([--racks 2 --hosts 2
   --horizon-ms 2], seed 42). The digest pins the order of every traced
   event across both rack shards, cross-rack deliveries included; it did
   not move when the ToR cut-through latency was folded into the links
   that feed each switch, which dropped one event per switch traversal. *)
let test_par_bench_golden_digest () =
  let r =
    Experiments.Exp_par_sim.run_one ~racks:2 ~hosts_per_rack:2 ~horizon_ms:2.0
      ~domains:forced_domains ()
  in
  check_string "merged digest" "9d8306921f1f8178" r.digest;
  check_int "events" 16039 r.events

(* {2 End-to-end: par-bench digest equality, >= 5 seeds} *)

let test_par_sim_digest_equality () =
  List.iter
    (fun seed ->
      let run domains =
        Experiments.Exp_par_sim.run_one ~seed ~racks:2 ~hosts_per_rack:2
          ~horizon_ms:1.0 ~domains ()
      in
      let r1 = run 1 in
      let rn = run forced_domains in
      check_string
        (Printf.sprintf "seed %Ld: merged digest equal across domain counts" seed)
        r1.digest rn.digest;
      check_int (Printf.sprintf "seed %Ld: same event total" seed) r1.events rn.events;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %Ld: same per-partition event counts" seed)
        r1.part_events rn.part_events;
      check_bool
        (Printf.sprintf "seed %Ld: workload actually ran" seed)
        true
        (r1.requests > 0 && r1.responses > 0))
    [ 1L; 2L; 3L; 4L; 5L ]

(* {2 Par_sweep: jobs=1 vs jobs=N equality for the replication suites} *)

let test_chaos_jobs_equality () =
  let s1 = Experiments.Chaos.run_suite ~seeds:5 ~jobs:1 () in
  let sn = Experiments.Chaos.run_suite ~seeds:5 ~jobs:forced_domains () in
  check_int "same run count" (List.length s1.runs) (List.length sn.runs);
  check_bool "both deterministic" true (s1.deterministic && sn.deterministic);
  List.iter2
    (fun (a : Experiments.Chaos.run_result) (b : Experiments.Chaos.run_result) ->
      check_string (Printf.sprintf "seed %Ld: identical trace" a.seed) a.trace b.trace)
    s1.runs sn.runs

let test_kv_chaos_jobs_equality () =
  let s1 = Experiments.Exp_kv_chaos.run_suite ~seeds:5 ~jobs:1 () in
  let sn = Experiments.Exp_kv_chaos.run_suite ~seeds:5 ~jobs:forced_domains () in
  check_int "same run count" (List.length s1.runs) (List.length sn.runs);
  check_bool "both deterministic" true (s1.deterministic && sn.deterministic);
  List.iter2
    (fun (a : Experiments.Exp_kv_chaos.run_result)
         (b : Experiments.Exp_kv_chaos.run_result) ->
      check_string (Printf.sprintf "seed %Ld: identical trace" a.seed) a.trace b.trace)
    s1.runs sn.runs

let test_cluster_load_jobs_equality () =
  List.iter
    (fun seed ->
      let run jobs =
        Experiments.Exp_cluster_load.run_all ~seed ~scale:0.2 ~horizon_ms:5.0 ~jobs ()
      in
      List.iter2
        (fun (a : Experiments.Exp_cluster_load.result)
             (b : Experiments.Exp_cluster_load.result) ->
          check_string
            (Printf.sprintf "seed %Ld %s: identical digest" seed a.scenario)
            a.digest b.digest)
        (run 1) (run forced_domains))
    [ 3L; 5L; 7L; 11L; 13L ]

(* {2 Par_sweep mechanics} *)

let test_par_sweep_order_and_exn () =
  Alcotest.(check (array int))
    "results in task order" [| 0; 10; 20; 30; 40; 50; 60 |]
    (Experiments.Par_sweep.map ~jobs:forced_domains 7 (fun i -> i * 10));
  Alcotest.(check (array int)) "empty" [||] (Experiments.Par_sweep.map ~jobs:4 0 (fun i -> i));
  match Experiments.Par_sweep.map ~jobs:forced_domains 5 (fun i ->
            if i = 3 then failwith "task-3" else i)
  with
  | _ -> Alcotest.fail "expected task exception to propagate"
  | exception Failure m -> check_string "task exception re-raised in caller" "task-3" m

let suite =
  [
    Alcotest.test_case "kernel lookahead boundary + tie-break" `Quick
      test_lookahead_boundary;
    qcheck_merge_invariant;
    Alcotest.test_case "par-bench golden digest" `Quick test_par_bench_golden_digest;
    Alcotest.test_case "par-bench digests equal across domains (5 seeds)" `Quick
      test_par_sim_digest_equality;
    Alcotest.test_case "chaos suite identical under --jobs (5 seeds)" `Quick
      test_chaos_jobs_equality;
    Alcotest.test_case "kv-chaos suite identical under --jobs (5 seeds)" `Quick
      test_kv_chaos_jobs_equality;
    Alcotest.test_case "cluster-load identical under --jobs (5 seeds)" `Quick
      test_cluster_load_jobs_equality;
    Alcotest.test_case "Par_sweep order and exception plumbing" `Quick
      test_par_sweep_order_and_exn;
  ]
