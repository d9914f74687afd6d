(* Sanity checks on the calibrated cluster profiles. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let profiles () =
  [
    Transport.Cluster.cx3 ();
    Transport.Cluster.cx4 ();
    Transport.Cluster.cx5 ();
    Transport.Cluster.cx5_ib100 ();
  ]

let test_profiles_well_formed () =
  List.iter
    (fun (c : Transport.Cluster.t) ->
      check_bool (c.name ^ " link rate") true (c.link_gbps > 0.);
      check_bool (c.name ^ " mtu") true (c.mtu >= 1024);
      check_bool (c.name ^ " hosts") true (c.num_hosts >= 2);
      check_bool (c.name ^ " cpu scale") true (c.cpu_scale > 0.5 && c.cpu_scale < 2.0);
      check_bool (c.name ^ " nic latencies positive") true
        (c.nic_config.tx_latency_ns > 0 && c.nic_config.rx_latency_ns > 0);
      (* The RDMA path must remain physical after the calibration delta. *)
      check_bool (c.name ^ " rdma tx nonneg") true
        (c.nic_config.tx_latency_ns - c.rdma_delta_ns >= 0);
      check_bool (c.name ^ " rdma rx nonneg") true
        (c.nic_config.rx_latency_ns + (c.nic_config.rx_jitter_ns / 2) - c.rdma_delta_ns >= 0))
    (profiles ())

let test_default_credits_is_bdp_over_mtu () =
  List.iter
    (fun (c : Transport.Cluster.t) ->
      let credits = Transport.Cluster.default_credits c in
      check_bool (c.name ^ " credits >= 2") true (credits >= 2);
      check_bool
        (Printf.sprintf "%s credits %d ~ BDP/MTU" c.name credits)
        true
        (credits = max 2 (c.bdp_bytes / c.mtu)))
    (profiles ())

let test_infiniband_profiles_lossless () =
  check_bool "CX3 lossless" true (Transport.Cluster.cx3 ()).net_config.lossless;
  check_bool "CX5-IB100 lossless" true (Transport.Cluster.cx5_ib100 ()).net_config.lossless;
  check_bool "CX4 lossy" false (Transport.Cluster.cx4 ()).net_config.lossless;
  check_bool "CX5 lossy" false (Transport.Cluster.cx5 ()).net_config.lossless

let test_session_budget_formula () =
  (* rq_size / credits sessions must be creatable, matching §4.3.1. *)
  List.iter
    (fun (c : Transport.Cluster.t) ->
      let cfg = Erpc.Config.of_cluster c in
      check_bool (c.name ^ " supports many sessions") true
        (c.nic_config.rq_size / cfg.session_credits >= 1_000))
    [ Transport.Cluster.cx4 () ]

let test_config_min_rtt_reasonable () =
  List.iter
    (fun (c : Transport.Cluster.t) ->
      let cfg = Erpc.Config.of_cluster c in
      (* Base RTT estimates sit in the single-digit microseconds, like the
         paper's clusters (3.1-6 us). *)
      check_bool
        (Printf.sprintf "%s min_rtt %d ns" c.name cfg.cc.min_rtt_ns)
        true
        (cfg.cc.min_rtt_ns > 1_000 && cfg.cc.min_rtt_ns < 12_000))
    (profiles ())

let test_wire_overhead_matches_paper () =
  (* 32 B RPCs appear as 92 B packets (§6.3). *)
  List.iter
    (fun (c : Transport.Cluster.t) -> check_int (c.name ^ " overhead") 60 c.wire_overhead)
    (profiles ())

let suite =
  [
    Alcotest.test_case "profiles well-formed" `Quick test_profiles_well_formed;
    Alcotest.test_case "credits = BDP/MTU" `Quick test_default_credits_is_bdp_over_mtu;
    Alcotest.test_case "InfiniBand profiles lossless" `Quick test_infiniband_profiles_lossless;
    Alcotest.test_case "session budget formula" `Quick test_session_budget_formula;
    Alcotest.test_case "min RTT reasonable" `Quick test_config_min_rtt_reasonable;
    Alcotest.test_case "wire overhead" `Quick test_wire_overhead_matches_paper;
  ]
