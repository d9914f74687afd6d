(* Tests for the RDMA baseline: connection cache, verbs-like ops, and the
   Figure 1 throughput model. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 Connection cache (LRU)} *)

let test_cache_hits_and_misses () =
  let c = Nic.Conn_cache.create ~capacity_entries:2 in
  check_bool "cold miss" false (Nic.Conn_cache.access c 1);
  check_bool "hit" true (Nic.Conn_cache.access c 1);
  check_bool "second conn" false (Nic.Conn_cache.access c 2);
  check_bool "both resident" true (Nic.Conn_cache.access c 1 && Nic.Conn_cache.access c 2);
  check_int "resident" 2 (Nic.Conn_cache.resident c)

let test_cache_lru_eviction () =
  let c = Nic.Conn_cache.create ~capacity_entries:2 in
  ignore (Nic.Conn_cache.access c 1);
  ignore (Nic.Conn_cache.access c 2);
  (* Touch 1 so 2 becomes LRU; insert 3 evicts 2. *)
  ignore (Nic.Conn_cache.access c 1);
  ignore (Nic.Conn_cache.access c 3);
  check_bool "1 still cached" true (Nic.Conn_cache.access c 1);
  check_bool "2 evicted" false (Nic.Conn_cache.access c 2)

let test_cache_miss_ratio_when_oversubscribed () =
  let c = Nic.Conn_cache.create ~capacity_entries:10 in
  let rng = Sim.Rng.create 2L in
  (* 1000 connections into a 10-entry cache: miss ratio ~ 99%. *)
  for _ = 1 to 5_000 do
    ignore (Nic.Conn_cache.access c (Sim.Rng.int rng 1_000))
  done;
  Nic.Conn_cache.reset_stats c;
  for _ = 1 to 20_000 do
    ignore (Nic.Conn_cache.access c (Sim.Rng.int rng 1_000))
  done;
  check_bool "high miss ratio" true (Nic.Conn_cache.miss_ratio c > 0.95)

let test_cache_fits_all () =
  let c = Nic.Conn_cache.create ~capacity_entries:100 in
  for conn = 0 to 99 do
    ignore (Nic.Conn_cache.access c conn)
  done;
  Nic.Conn_cache.reset_stats c;
  for _ = 1 to 10 do
    for conn = 0 to 99 do
      ignore (Nic.Conn_cache.access c conn)
    done
  done;
  Alcotest.(check (float 0.001)) "no misses when resident" 0.0 (Nic.Conn_cache.miss_ratio c)

(* {2 QP operations} *)

let two_node_setup () =
  let cluster = Transport.Cluster.cx5_ib100 () in
  let engine = Sim.Engine.create () in
  let net = Transport.Cluster.build engine cluster in
  let cfg = Rdma.Qp.default_config cluster in
  let ep0 = Rdma.Qp.create engine net ~host:0 cfg in
  let ep1 = Rdma.Qp.create engine net ~host:1 cfg in
  (engine, ep0, ep1)

let test_read_completes () =
  let engine, ep0, _ep1 = two_node_setup () in
  let done_at = ref 0 in
  Rdma.Qp.post_read ep0 ~dst:1 ~len:32 ~completion:(fun () -> done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check_bool "completed" true (!done_at > 0);
  (* Small read should be a couple of microseconds. *)
  check_bool "latency band" true (!done_at > 500 && !done_at < 5_000)

let test_write_completes_and_scales_with_size () =
  let engine, ep0, _ep1 = two_node_setup () in
  let t_small = ref 0 and t_large = ref 0 in
  Rdma.Qp.post_write ep0 ~dst:1 ~len:4_096 ~completion:(fun () ->
      t_small := Sim.Engine.now engine);
  Sim.Engine.run engine;
  let start = Sim.Engine.now engine in
  Rdma.Qp.post_write ep0 ~dst:1 ~len:(1024 * 1024) ~completion:(fun () ->
      t_large := Sim.Engine.now engine - start);
  Sim.Engine.run engine;
  check_bool "large write slower" true (!t_large > !t_small);
  (* 1 MB at 100 Gbps is ~84 us of serialization. *)
  check_bool "serialization dominates" true (!t_large > 80_000 && !t_large < 200_000)

let test_reads_pipelined () =
  let engine, ep0, _ep1 = two_node_setup () in
  let completions = ref 0 in
  for _ = 1 to 16 do
    Rdma.Qp.post_read ep0 ~dst:1 ~len:32 ~completion:(fun () -> incr completions)
  done;
  Sim.Engine.run engine;
  check_int "all complete" 16 !completions

(* {2 Figure 1 model} *)

let test_read_rate_flat_then_declines () =
  let r1 = Rdma.Read_rate.run ~connections:100 () in
  let r450 = Rdma.Read_rate.run ~connections:450 () in
  let r5000 = Rdma.Read_rate.run ~connections:5_000 () in
  check_bool "flat while cached" true (abs_float (r1.rate_mops -. r450.rate_mops) < 2.0);
  check_bool "collapses beyond cache" true (r5000.rate_mops < 0.6 *. r1.rate_mops);
  check_bool "miss ratio explains it" true (r5000.miss_ratio > 0.85)

let test_read_rate_monotone () =
  let rates =
    List.map
      (fun c -> (Rdma.Read_rate.run ~connections:c ()).rate_mops)
      [ 100; 1_000; 2_000; 5_000 ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a +. 0.5 >= b && non_increasing rest
    | _ -> true
  in
  check_bool "monotone non-increasing" true (non_increasing rates)

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hits_and_misses;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache oversubscribed" `Quick test_cache_miss_ratio_when_oversubscribed;
    Alcotest.test_case "cache fits all" `Quick test_cache_fits_all;
    Alcotest.test_case "read completes" `Quick test_read_completes;
    Alcotest.test_case "write scales with size" `Quick test_write_completes_and_scales_with_size;
    Alcotest.test_case "reads pipelined" `Quick test_reads_pipelined;
    Alcotest.test_case "fig1 shape" `Quick test_read_rate_flat_then_declines;
    Alcotest.test_case "fig1 monotone" `Quick test_read_rate_monotone;
  ]
