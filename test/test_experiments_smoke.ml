(* Smoke tests for the experiment harnesses: short runs asserting that
   each reproduced result lands in a sane band around the paper's value.
   The full-length runs are `erpc_sim paper <section>`; these keep the
   experiment code exercised by `dune runtest`. *)

let check_bool = Alcotest.(check bool)

let in_band name lo hi v =
  check_bool (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" name v lo hi) true (v >= lo && v <= hi)

let test_latency_bands () =
  let r = Experiments.Exp_latency.measure ~samples:300 (Transport.Cluster.cx5 ~nodes:2 ()) in
  in_band "CX5 RDMA read (us)" 1.6 2.4 r.rdma_read_us;
  in_band "CX5 eRPC (us)" 2.0 2.7 r.erpc_us;
  check_bool "eRPC slower than RDMA" true (r.erpc_us > r.rdma_read_us)

let test_small_rate_band () =
  let r =
    Experiments.Exp_small_rate.run ~measure_ms:1.0
      ~cluster:(Transport.Cluster.cx4 ~nodes:11 ())
      ~batch:3 ()
  in
  in_band "CX4 single-core Mrps" 4.0 6.0 r.per_thread_mrps

let test_fasst_faster_than_erpc () =
  let cluster = Transport.Cluster.cx3 () in
  let erpc = Experiments.Exp_small_rate.run ~measure_ms:1.0 ~cluster ~batch:11 () in
  let fasst =
    Experiments.Exp_small_rate.run_fasst ~measure_ms:1.0 ~window:60 ~cluster ~batch:11 ()
  in
  check_bool "specialized system leads at large B" true
    (fasst.per_thread_mrps > erpc.per_thread_mrps)

let test_bandwidth_band () =
  let p = Experiments.Exp_bandwidth.erpc_goodput ~requests:3 ~req_size:(2 * 1024 * 1024) () in
  in_band "2 MB goodput (Gbps)" 60.0 90.0 p.goodput_gbps;
  let r = Experiments.Exp_bandwidth.rdma_write_goodput ~requests:3 ~req_size:(2 * 1024 * 1024) () in
  check_bool "eRPC within 70-100% of RDMA write" true
    (p.goodput_gbps /. r.goodput_gbps > 0.7 && p.goodput_gbps < r.goodput_gbps)

(* Bulk payloads nobody reads cost no host memory: at a fixed request
   count, a 1 MiB run allocates on the major heap directly (where every
   buffer above 2 KiB goes) less than 64 KiB more than a 64 KiB run does.
   Eager buffers would add about three request sizes. Promotions are
   left out: they follow minor-heap timing, not request size. *)
let test_bandwidth_allocation_flat_in_size () =
  let direct_major_bytes req_size =
    let direct () =
      let _, promoted, major = Gc.counters () in
      (major -. promoted) *. float_of_int (Sys.word_size / 8)
    in
    let a0 = direct () in
    ignore (Experiments.Exp_bandwidth.erpc_goodput ~requests:4 ~req_size ());
    direct () -. a0
  in
  let small = direct_major_bytes 65_536 and large = direct_major_bytes 1_048_576 in
  check_bool
    (Printf.sprintf "1 MiB run allocates %.0f B, 64 KiB run %.0f B" large small)
    true
    (large -. small < 65_536.)

let test_loss_collapse () =
  let clean = Experiments.Exp_bandwidth.erpc_goodput ~requests:3 ~req_size:(4 * 1024 * 1024) () in
  let lossy =
    Experiments.Exp_bandwidth.erpc_goodput ~requests:3 ~loss:1e-3 ~req_size:(4 * 1024 * 1024) ()
  in
  check_bool "heavy loss collapses throughput" true
    (lossy.goodput_gbps < 0.2 *. clean.goodput_gbps);
  check_bool "via retransmissions" true (lossy.retransmits > 0)

let test_incast_cc_reduces_queueing () =
  let with_cc =
    Experiments.Exp_incast.run ~degree:20 ~cc:true ~warmup_ms:8.0 ~measure_ms:10.0 ()
  in
  let without =
    Experiments.Exp_incast.run ~degree:20 ~cc:false ~warmup_ms:8.0 ~measure_ms:10.0 ()
  in
  check_bool
    (Printf.sprintf "cc cuts p50 queueing (%.0f vs %.0f us)" with_cc.rtt_p50_us
       without.rtt_p50_us)
    true
    (with_cc.rtt_p50_us < 0.5 *. without.rtt_p50_us);
  in_band "no-cc p50 = degree x window (us)" 180. 280. without.rtt_p50_us

let test_scalability_small () =
  (* A scaled-down Fig 5: 20 nodes, 2 threads each, all-to-all. *)
  let r = Experiments.Exp_scalability.run ~nodes:20 ~threads:2 ~measure_us:400. () in
  check_bool "throughput positive" true (r.per_node_mrps > 1.0);
  in_band "median latency (us)" 8.0 25.0 r.lat_p50_us

let test_raft_band () =
  let r = Experiments.Exp_raft.run ~samples:300 () in
  in_band "replicated PUT p50 (us)" 4.0 7.0 r.client_p50_us;
  in_band "leader commit p50 (us)" 2.0 4.5 r.leader_p50_us;
  check_bool "client latency > leader commit" true (r.client_p50_us > r.leader_p50_us)

let test_rdma_fig1_band () =
  let few = Rdma.Read_rate.run ~ops:100_000 ~connections:100 () in
  let many = Rdma.Read_rate.run ~ops:100_000 ~connections:5_000 () in
  check_bool "collapse by ~half" true
    (many.rate_mops < 0.6 *. few.rate_mops && many.rate_mops > 0.3 *. few.rate_mops)

(* A builtin cluster-load scenario, run by the KV runner. *)
let cluster_load ~seed ~scale ~horizon_ms name =
  Experiments.Kv_runner.run ~seed
    (Option.get (Workload.Traffic_spec.of_name ~scale ~horizon_ms name))

let test_cluster_load_smoke () =
  (* Scaled-down steady-Poisson scenario: every tenant makes progress,
     SLO percentiles are ordered, and the tail attribution is present. *)
  let r = cluster_load ~seed:7L ~scale:0.25 ~horizon_ms:15.0 "steady-poisson" in
  Alcotest.(check (list string)) "no violations" [] r.violations;
  List.iter
    (fun (t : Experiments.Kv_runner.tenant_report) ->
      let w = t.whole in
      check_bool (t.tname ^ " made progress") true (w.ok > 0);
      (* Every operation completes inside the settle period. *)
      Alcotest.(check int) (t.tname ^ " open-loop accounting") w.issued (w.ok + w.failed);
      let lat = Experiments.Harness.merged w.lat in
      let p50, p99, p999 =
        Experiments.Harness.(us_at lat 50., us_at lat 99., us_at lat 99.9)
      in
      check_bool
        (Printf.sprintf "%s percentiles ordered (%.1f <= %.1f <= %.1f us)" t.tname p50 p99
           p999)
        true
        (p50 <= p99 && p99 <= p999);
      match t.steady with
      | None -> Alcotest.fail (t.tname ^ ": no steady state in a 15 ms horizon")
      | Some s ->
          check_bool (t.tname ^ " steady counts within the whole run's") true
            (s.issued <= w.issued && s.ok <= w.ok && s.failed <= w.failed
           && s.shed <= w.shed))
    r.tenants;
  check_bool "attribution present" true (r.attribution <> None);
  check_bool "JSON validates" true
    (Json_check.validate
       (Obs.Json.to_string (Experiments.Kv_runner.to_json r)))

(* The tail attribution reports how much of the client traffic it saw:
   every analyzed RPC is one the client hosts issued. *)
let test_cluster_load_coverage () =
  List.iter
    (fun (name, _) ->
      let r = cluster_load ~seed:7L ~scale:0.2 ~horizon_ms:10.0 name in
      let c = Experiments.Kv_runner.coverage r in
      check_bool
        (Printf.sprintf "%s: analyzed %d <= issued %d" name r.analyzed_rpcs r.issued_rpcs)
        true
        (r.analyzed_rpcs <= r.issued_rpcs);
      check_bool (Printf.sprintf "%s: 0 < coverage %.3f <= 1" name c) true (0. < c && c <= 1.))
    Workload.Traffic_spec.builtin

(* Fault plans run under multi-tenant load: a cluster-load scenario with a
   ToR partition and a leader crash inside its horizon stays clean (the
   fabric audit, the service invariants, every tenant making progress) and
   reruns identically. *)
let test_cluster_load_under_faults () =
  let module T = Workload.Traffic_spec in
  let ms n = n * 1_000_000 in
  let s =
    {
      (Option.get (T.of_name ~scale:0.25 ~horizon_ms:20.0 "steady-poisson")) with
      faults =
        [
          Scheduled
            {
              at_ns = ms 4;
              fault = Faults.Schedule.Partition { tor_a = 0; tor_b = 1; heal_ns = ms 6 };
            };
          Crash_leader { at_ns = ms 12; shard = 1; down_ns = ms 4 };
        ];
    }
  in
  let run () = Experiments.Kv_runner.run ~seed:42L s in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "no violations" [] a.violations;
  check_bool "the crash restarted a replica" true (a.restarts >= 1);
  let has w =
    let n = String.length w in
    let rec go i = i + n <= String.length a.trace && (String.sub a.trace i n = w || go (i + 1)) in
    go 0
  in
  check_bool "the fault trace holds the partition and the crash" true
    (has "inject partition" && has "crash-leader shard=1");
  Alcotest.(check string) "same digest" a.digest b.digest;
  Alcotest.(check string) "same fault trace" a.trace b.trace;
  Alcotest.(check int) "same events" a.events b.events

(* A kv-chaos run and a cluster-load run serialize to one row schema: the
   same keys in the row and in its KV tenant, so the kv-chaos row carries
   its GET and PUT percentiles apart. *)
let test_kv_rows_one_schema () =
  let module T = Workload.Traffic_spec in
  let module K = Experiments.Kv_runner in
  let fields = function
    | Obs.Json.Obj f -> f
    | _ -> Alcotest.fail "row is not an object"
  in
  let kv_tenant row =
    match List.assoc "tenants" (fields row) with
    | Obs.Json.Arr ts ->
        fields
          (List.find (fun t -> List.assoc "service" (fields t) = Obs.Json.Str "kv") ts)
    | _ -> Alcotest.fail "tenants is not an array"
  in
  let chaos =
    K.to_json (K.run ~seed:40_000L (T.kv_chaos ~seed:40_000L (Some T.Leader_crash)))
  in
  let load = K.to_json (cluster_load ~seed:7L ~scale:0.2 ~horizon_ms:10.0 "steady-poisson") in
  Alcotest.(check (list string))
    "same row keys" (List.map fst (fields load)) (List.map fst (fields chaos));
  Alcotest.(check (list string))
    "same KV tenant keys"
    (List.map fst (kv_tenant load))
    (List.map fst (kv_tenant chaos));
  let us k =
    match List.assoc k (kv_tenant chaos) with
    | Obs.Json.Float f -> f
    | _ -> Alcotest.failf "kv-chaos %s is not a float" k
  in
  check_bool "kv-chaos GET and PUT percentiles apart" true
    (0. < us "get_p50_us" && us "get_p50_us" <= us "get_p99_us"
     && 0. < us "put_p50_us" && us "put_p50_us" <= us "put_p99_us"
     && us "get_p50_us" <> us "put_p50_us")

let test_cluster_load_deterministic () =
  (* Same seed => byte-identical event traces, across all three builtin
     scenarios (the kv-chaos determinism contract, extended to the
     open-loop traffic engine). Digests are FNV-1a over every retained
     event, so any divergence in ordering, payload, or eviction shows. *)
  List.iter
    (fun (name, _) ->
      let digest () =
        (cluster_load ~seed:11L ~scale:0.2 ~horizon_ms:10.0 name).digest
      in
      Alcotest.(check string) (name ^ " digest stable") (digest ()) (digest ()))
    Workload.Traffic_spec.builtin;
  (* And a different seed takes a different path. *)
  let d seed =
    (cluster_load ~seed ~scale:0.2 ~horizon_ms:10.0 "steady-poisson").digest
  in
  check_bool "seed changes trace" true (d 11L <> d 12L)

(* The typed small-rate path (Table 3's "Typed codec" rows) at the default
   seed, CX4 with 11 nodes, B = 3: exact RPC counts, so any change to the
   typed datapath or to the driver's issue instants shows. The flat count
   went 20 912 -> 20 904 when ports began posting a packet's arrival at
   admission: same-nanosecond arrivals take their FIFO place then, not at
   departure. *)
let test_typed_small_rate_pinned () =
  let cluster = Transport.Cluster.cx4 ~nodes:11 () in
  List.iter
    (fun (name, codec_backend, expect) ->
      let config = { (Erpc.Config.of_cluster cluster) with codec_backend } in
      let r =
        Experiments.Exp_small_rate.run ~config
          ~payload:
            (Experiments.Harness.Typed
               (Experiments.Harness.schema_fixed, Experiments.Harness.value_fixed))
          ~measure_ms:0.5 ~cluster ~batch:3 ()
      in
      Alcotest.(check int) (name ^ " total_rpcs") expect r.total_rpcs;
      Alcotest.(check int) (name ^ " retransmits") 0 r.retransmits)
    [ ("compact", Codec.Compact, 16_728); ("flat", Codec.Flat, 20_904) ]

(* A closed-loop driver with a count issues exactly [n] requests and
   never has more than [window] in flight. A window-1 driver is a
   sequential run: each request arrives only after the previous one
   completed. [run_driver] returns only after the n-th completion, even
   when its slices are much shorter than a request. *)
let test_sequential_driver () =
  let module H = Experiments.Harness in
  List.iter
    (fun (window, batch, n) ->
      let name = Printf.sprintf "window %d, batch %d" window batch in
      let driver = ref None in
      let arrivals = ref 0 and overlapped = ref 0 in
      let register nx =
        Erpc.Nexus.register_handler nx ~req_type:H.echo_req_type ~mode:Erpc.Nexus.Dispatch
          (fun h ->
            (match !driver with
            | Some drv -> if !arrivals - H.driver_completed drv >= window then incr overlapped
            | None -> ());
            incr arrivals;
            let resp = Erpc.Req_handle.init_response h ~size:32 in
            Erpc.Req_handle.enqueue_response h resp)
      in
      let d =
        H.deploy ~seed:3L (Transport.Cluster.cx5 ~nodes:2 ()) ~threads_per_host:1 ~register
      in
      let rpc = d.rpcs.(0).(0) in
      let sess = H.connect d rpc ~remote_host:1 ~remote_rpc_id:0 in
      let drv =
        H.make_driver
          ~payload:(H.Echo { req_size = 64 * 1024; resp_size = 32 })
          ~batch ~count:n ~rpc ~sessions:[| sess |] ~window ()
      in
      driver := Some drv;
      H.start_driver drv;
      H.run_driver d drv ~slice_ms:0.001;
      Alcotest.(check int) (name ^ ": run_driver returns after the n-th completion") n
        (H.driver_completed drv);
      check_bool (name ^ ": span covers the later completions") true (H.driver_span drv > 0);
      H.run_ms d 5.0;
      Alcotest.(check int) (name ^ ": exactly n issued") n !arrivals;
      Alcotest.(check int) (name ^ ": never more than window outstanding") 0 !overlapped;
      Alcotest.(check int) (name ^ ": no completion after the run") n (H.driver_completed drv))
    [ (1, 1, 8); (3, 1, 10); (4, 2, 9) ]

(* The open loop on a bare engine, with a hook that completes each
   operation 2.5 us after issue and fails every third: arrivals fire at
   their scheduled instants whatever the completions, an arrival that
   finds both slots busy is shed, every operation completes exactly once,
   so the results sum to the operations issued, and the post-warmup tally
   counts only what arrived after the warmup. [Process] sources
   fire exactly where their arrival process, drawn from the engine's
   first rng split, puts them. *)
let test_open_loop_driver () =
  let module H = Experiments.Harness in
  let engine = Sim.Engine.create ~seed:5L () in
  let issued_at = ref [] and completions = Hashtbl.create 64 in
  let send (op : Obs.Op.t) k =
    let id = op.id in
    issued_at := (op.source, op.issued_ns) :: !issued_at;
    Sim.Engine.schedule_after engine 2_500 (fun () ->
        Hashtbl.replace completions id
          (1 + Option.value ~default:0 (Hashtbl.find_opt completions id));
        k (if id mod 3 = 2 then Obs.Op.Failed else Obs.Op.Ok_))
  in
  let drv =
    H.driver ~engine ~slots:2 ~warmup_ns:5_000
      (Open { arrival = Every 1_000; sources = 2; until_ns = 10_000 })
      send
  in
  H.start_driver drv;
  Sim.Engine.run engine;
  let t = H.driver_tally drv in
  (* Both sources arrive at 0, 1, .., 9 us; the two slots are busy for
     2.5 us after each pair issues, so the pairs at 0, 3, 6 and 9 us issue
     and the other twelve arrivals are shed. *)
  Alcotest.(check (list (pair int int)))
    "issued at the scheduled instants"
    (List.concat_map (fun us -> [ (0, us * 1_000); (1, us * 1_000) ]) [ 0; 3; 6; 9 ])
    (List.rev !issued_at);
  Alcotest.(check int) "issued" 8 t.issued;
  Alcotest.(check int) "shed at the cap" 12 t.shed;
  Alcotest.(check int) "results sum to issued" t.issued (t.ok + t.failed);
  Alcotest.(check int) "every third failed" 2 t.failed;
  (match H.driver_steady drv with
  | Some st ->
      (* From 5 us on: the pairs at 6 and 9 us issue; 5, 7 and 8 us shed. *)
      Alcotest.(check (pair int int)) "steady issued, shed" (4, 6) (st.issued, st.shed);
      Alcotest.(check int) "steady results sum to issued" 4 (st.ok + st.failed)
  | None -> Alcotest.fail "no steady tally");
  check_bool "each operation completed exactly once" true
    (Hashtbl.length completions = t.issued
    && Hashtbl.fold (fun _ n ok -> ok && n = 1) completions true);
  (* A Poisson source, with a cap so large that nothing is shed. *)
  let spec = Workload.Arrival.Poisson { rate_rps = 1e6 } in
  let engine = Sim.Engine.create ~seed:5L () in
  let issued_at = ref [] in
  let send (op : Obs.Op.t) k =
    issued_at := op.issued_ns :: !issued_at;
    Sim.Engine.schedule_after engine 50_000 (fun () -> k Obs.Op.Ok_)
  in
  let drv =
    H.driver ~engine ~slots:1_000
      (Open { arrival = Process spec; sources = 1; until_ns = 100_000 })
      send
  in
  H.start_driver drv;
  Sim.Engine.run engine;
  let arr =
    Workload.Arrival.make spec
      ~rng:(Sim.Rng.split (Sim.Engine.rng (Sim.Engine.create ~seed:5L ())))
  in
  let rec expect now acc =
    let next = Workload.Arrival.next_after arr ~now_ns:now in
    if next < 100_000 then expect next (next :: acc) else List.rev acc
  in
  Alcotest.(check (list int)) "Poisson arrivals" (expect 0 []) (List.rev !issued_at);
  Alcotest.(check int) "all completed" (H.driver_tally drv).issued (H.driver_completed drv)

(* The goodput window closes at the last request's completion, not at the
   first slice boundary after it was issued: at 1e-3 loss the eighth 8 MB
   request finishes in a later 10 ms slice than the one it starts in. *)
let test_goodput_counts_finished_requests () =
  let p =
    Experiments.Exp_bandwidth.erpc_goodput ~seed:42L ~loss:1e-3 ~requests:8
      ~req_size:(8 * 1024 * 1024) ()
  in
  check_bool
    (Printf.sprintf "8 x 8 MiB at 1e-3: %.3f Gbps within 2.87 +- 0.01" p.goodput_gbps)
    true
    (Float.abs (p.goodput_gbps -. 2.87) <= 0.01)

let suite =
  [
    Alcotest.test_case "table2 bands" `Quick test_latency_bands;
    Alcotest.test_case "fig4 band" `Quick test_small_rate_band;
    Alcotest.test_case "fig4 FaSST ordering" `Quick test_fasst_faster_than_erpc;
    Alcotest.test_case "fig6 band" `Quick test_bandwidth_band;
    Alcotest.test_case "bandwidth allocation flat in size" `Quick
      test_bandwidth_allocation_flat_in_size;
    Alcotest.test_case "table4 collapse" `Quick test_loss_collapse;
    Alcotest.test_case "table5 cc effect" `Quick test_incast_cc_reduces_queueing;
    Alcotest.test_case "fig5 scaled-down" `Quick test_scalability_small;
    Alcotest.test_case "table6 bands" `Quick test_raft_band;
    Alcotest.test_case "fig1 band" `Quick test_rdma_fig1_band;
    Alcotest.test_case "cluster-load smoke" `Quick test_cluster_load_smoke;
    Alcotest.test_case "cluster-load determinism" `Quick test_cluster_load_deterministic;
    Alcotest.test_case "cluster-load under a fault plan" `Quick test_cluster_load_under_faults;
    Alcotest.test_case "cluster-load coverage" `Quick test_cluster_load_coverage;
    Alcotest.test_case "kv-chaos and cluster-load rows: one schema" `Quick
      test_kv_rows_one_schema;
    Alcotest.test_case "typed small-rate pinned" `Quick test_typed_small_rate_pinned;
    Alcotest.test_case "sequential driver" `Quick test_sequential_driver;
    Alcotest.test_case "open-loop driver" `Quick test_open_loop_driver;
    Alcotest.test_case "goodput counts finished requests" `Quick
      test_goodput_counts_finished_requests;
  ]
