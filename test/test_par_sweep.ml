(* Seed-level domain parallelism (Experiments.Par_sweep): a suite fanned
   out over several domains must report exactly what a sequential run
   reports. The suite tests compare a [--jobs 1] run with a parallel run
   of the same seeded work; the remaining tests check Par_sweep's own
   task order, inline path, worker clamp and exception plumbing.

   [ERPC_TEST_DOMAINS] (default 2) sets the parallel side, letting CI
   force the suite through a given domain count without editing tests. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let forced_domains =
  match Sys.getenv_opt "ERPC_TEST_DOMAINS" with
  | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* {2 Par_sweep: jobs=1 vs jobs=N equality for the replication suites} *)

(* Each side runs twice, so "both deterministic" checks same-seed trace
   identity within a side before the sides are compared. The kv-chaos
   runs and the echo-chaos ones behind [erpc_sim chaos] go through the
   same sweep. *)
let test_chaos_jobs_equality () =
  List.iter
    (fun runs ->
      let run jobs =
        List.map
          (fun (r : Experiments.Kv_runner.result) -> (r.seed, r.trace ^ r.digest))
          (Experiments.Kv_runner.sweep ~jobs runs)
      in
      let s1 = run 1 and sn = run forced_domains in
      check_int "same run count" (List.length s1) (List.length sn);
      check_bool "both deterministic" true (s1 = run 1 && sn = run forced_domains);
      List.iter2
        (fun (seed, a) (_, b) ->
          check_string (Printf.sprintf "seed %Ld: identical trace" seed) a b)
        s1 sn)
    [
      Workload.Traffic_spec.kv_chaos_suite ~seed:42L ~seeds:5;
      Workload.Traffic_spec.echo_chaos_suite ~seed:42L ~seeds:5;
    ]

let test_cluster_load_jobs_equality () =
  List.iter
    (fun seed ->
      let run jobs =
        Experiments.Kv_runner.sweep ~jobs
          (List.map
             (fun (name, _) ->
               ( seed,
                 Option.get (Workload.Traffic_spec.of_name ~scale:0.2 ~horizon_ms:5.0 name) ))
             Workload.Traffic_spec.builtin)
      in
      List.iter2
        (fun (a : Experiments.Kv_runner.result) (b : Experiments.Kv_runner.result) ->
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
  Alcotest.(check (array int))
    "more jobs than tasks" [| 0; 1; 4 |]
    (Experiments.Par_sweep.map ~jobs:8 3 (fun i -> i * i));
  match Experiments.Par_sweep.map ~jobs:forced_domains 5 (fun i ->
            if i = 3 then failwith "task-3" else i)
  with
  | _ -> Alcotest.fail "expected task exception to propagate"
  | exception Failure m -> check_string "task exception re-raised in caller" "task-3" m

(* [jobs <= 1], or a single task, must run inline: in order, on the
   calling domain, with no domain spawned. *)
let test_par_sweep_inline () =
  let self = (Domain.self () :> int) in
  List.iter
    (fun (label, jobs, n) ->
      let order = ref [] in
      let r =
        Experiments.Par_sweep.map ~jobs n (fun i ->
            order := (i, (Domain.self () :> int)) :: !order;
            i + 1)
      in
      Alcotest.(check (array int)) (label ^ ": results") (Array.init n (fun i -> i + 1)) r;
      Alcotest.(check (list (pair int int)))
        (label ^ ": ran in order on the caller")
        (List.init n (fun i -> (i, self)))
        (List.rev !order))
    [ ("jobs 1", 1, 5); ("jobs 0", 0, 4); ("jobs -3", -3, 3); ("one task", 8, 1) ];
  let order = ref [] in
  ignore (Experiments.Par_sweep.map 4 (fun i -> order := i :: !order));
  Alcotest.(check (list int)) "omitted ~jobs is sequential" [ 0; 1; 2; 3 ] (List.rev !order)

let test_par_sweep_negative_count () =
  Alcotest.check_raises "negative task count"
    (Invalid_argument "Par_sweep.map: negative task count") (fun () ->
      ignore (Experiments.Par_sweep.map ~jobs:forced_domains (-1) (fun i -> i)))

(* Every task runs exactly once however the cursor deals them, including
   when workers outnumber tasks. *)
let test_par_sweep_each_task_once () =
  List.iter
    (fun (jobs, n) ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let r = Experiments.Par_sweep.map ~jobs n (fun i -> Atomic.incr runs.(i); i) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs %d n %d: results" jobs n)
        (Array.init n Fun.id) r;
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "jobs %d n %d: task %d ran once" jobs n i) 1
            (Atomic.get c))
        runs)
    [ (forced_domains, 200); (8, 3); (2, 2); (forced_domains + 1, 17) ]

(* When several tasks raise, the caller sees the lowest-index one, as a
   sequential [Array.init] would, whichever worker failed first. *)
let test_par_sweep_lowest_exn_wins () =
  for _ = 1 to 5 do
    match
      Experiments.Par_sweep.map ~jobs:(Stdlib.max 2 forced_domains) 12 (fun i ->
          if i = 2 || i = 5 || i = 11 then failwith (Printf.sprintf "task-%d" i) else i)
    with
    | _ -> Alcotest.fail "expected a task exception"
    | exception Failure m -> check_string "lowest failing task re-raised" "task-2" m
  done

let test_par_sweep_list_matches_map () =
  let f i = Printf.sprintf "t%d:%d" i (i * i) in
  Alcotest.(check (list string))
    "list = map in order"
    (Array.to_list (Experiments.Par_sweep.map ~jobs:1 9 f))
    (Experiments.Par_sweep.list ~jobs:forced_domains 9 f);
  Alcotest.(check (list string)) "empty list" []
    (Experiments.Par_sweep.list ~jobs:forced_domains 0 f)

(* Tasks that each own a [Sim.Engine] (the shape of every suite task)
   give the same event counts, clocks and RNG draws on any worker. *)
let test_par_sweep_engine_tasks () =
  let task i =
    let e = Sim.Engine.create ~seed:(Int64.of_int (1000 + i)) () in
    let rng = Sim.Rng.split (Sim.Engine.rng e) in
    let fired = ref 0 and acc = ref 0 in
    let rec tick depth () =
      incr fired;
      acc := ((!acc * 31) + Sim.Engine.now e) land 0xFFFFFF;
      if depth < 50 then
        for _ = 1 to 1 + Sim.Rng.int rng 2 do
          if !fired < 400 then
            Sim.Engine.schedule_after e (Sim.Time.ns (1 + Sim.Rng.int rng 5_000))
              (tick (depth + 1))
        done
    in
    Sim.Engine.schedule e Sim.Time.zero (tick 0);
    Sim.Engine.run e;
    (Sim.Engine.events_processed e, Sim.Engine.now e, !acc)
  in
  let seq = Experiments.Par_sweep.map ~jobs:1 16 task in
  let par = Experiments.Par_sweep.map ~jobs:forced_domains 16 task in
  Array.iteri
    (fun i (ev, now, acc) ->
      let ev', now', acc' = par.(i) in
      check_int (Printf.sprintf "task %d events" i) ev ev';
      check_int (Printf.sprintf "task %d clock" i) now now';
      check_int (Printf.sprintf "task %d digest" i) acc acc';
      check_bool (Printf.sprintf "task %d ran events" i) true (ev > 1))
    seq

let suite =
  [
    Alcotest.test_case "kv-chaos and chaos suites identical under --jobs (5 seeds)" `Quick
      test_chaos_jobs_equality;
    Alcotest.test_case "cluster-load identical under --jobs (5 seeds)" `Quick
      test_cluster_load_jobs_equality;
    Alcotest.test_case "Par_sweep order and exception plumbing" `Quick
      test_par_sweep_order_and_exn;
    Alcotest.test_case "Par_sweep jobs <= 1 runs inline" `Quick test_par_sweep_inline;
    Alcotest.test_case "Par_sweep negative task count" `Quick
      test_par_sweep_negative_count;
    Alcotest.test_case "Par_sweep runs each task once" `Quick
      test_par_sweep_each_task_once;
    Alcotest.test_case "Par_sweep lowest-index exception wins" `Quick
      test_par_sweep_lowest_exn_wins;
    Alcotest.test_case "Par_sweep list matches map" `Quick
      test_par_sweep_list_matches_map;
    Alcotest.test_case "Par_sweep engine tasks identical across domains" `Quick
      test_par_sweep_engine_tasks;
  ]
