(* Tests for the Timely congestion-control algorithm. *)

let check_bool = Alcotest.(check bool)

let cc ?(samples_per_update = 1) () =
  { (Erpc.Config.default_cc ~min_rtt_ns:5_000) with samples_per_update }

let test_starts_uncongested () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  check_bool "at link rate" true (Erpc.Timely.uncongested t);
  Alcotest.(check (float 1.0)) "25 Gbps" 25e9 (Erpc.Timely.rate_bps t)

let test_low_rtt_keeps_max_rate () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  for _ = 1 to 100 do
    Erpc.Timely.update t ~sample_rtt_ns:10_000 (* below t_low = 50 us *)
  done;
  check_bool "still uncongested" true (Erpc.Timely.uncongested t)

let test_high_rtt_decreases_rate () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  for i = 1 to 20 do
    Erpc.Timely.update t ~sample_rtt_ns:(100_000 + (i * 20_000))
  done;
  check_bool "rate dropped" true (Erpc.Timely.rate_bps t < 25e9);
  check_bool "congested" true (not (Erpc.Timely.uncongested t))

let test_above_t_high_decreases () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  (* Flat RTT above t_high: gradient is 0, but absolute level forces MD. *)
  for _ = 1 to 50 do
    Erpc.Timely.update t ~sample_rtt_ns:2_000_000
  done;
  check_bool "rate well below max" true (Erpc.Timely.rate_bps t < 20e9)

let test_min_rate_clamp () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  for i = 1 to 10_000 do
    Erpc.Timely.update t ~sample_rtt_ns:(3_000_000 + (i * 1_000))
  done;
  check_bool "clamped at min rate" true (Erpc.Timely.rate_bps t >= Erpc.Config.min_rate_bps)

let test_recovery_after_congestion () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  for i = 1 to 50 do
    Erpc.Timely.update t ~sample_rtt_ns:(200_000 + (i * 10_000))
  done;
  let low = Erpc.Timely.rate_bps t in
  (* RTT back below t_low: additive increase recovers. *)
  for _ = 1 to 20_000 do
    Erpc.Timely.update t ~sample_rtt_ns:8_000
  done;
  check_bool "recovered" true (Erpc.Timely.rate_bps t > low);
  check_bool "back at max" true (Erpc.Timely.uncongested t)

let test_pacing_delay () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  (* 1084 wire bytes at 25 Gbps = 346.88 -> 347 ns. *)
  Alcotest.(check int) "pacing at line rate" 347 (Erpc.Timely.pacing_delay_ns t ~bytes:1084);
  Erpc.Timely.set_rate_bps t 1e9;
  Alcotest.(check int) "pacing at 1 Gbps" 8_672 (Erpc.Timely.pacing_delay_ns t ~bytes:1084)

let test_samples_per_update_batching () =
  let t = Erpc.Timely.create (cc ~samples_per_update:8 ()) ~link_gbps:25.0 in
  for _ = 1 to 7 do
    Erpc.Timely.update t ~sample_rtt_ns:2_000_000
  done;
  Alcotest.(check int) "no update before 8 samples" 0 (Erpc.Timely.updates t);
  Erpc.Timely.update t ~sample_rtt_ns:2_000_000;
  Alcotest.(check int) "one update at the 8th sample" 1 (Erpc.Timely.updates t);
  check_bool "that update acted" true (Erpc.Timely.rate_bps t < 25e9)

let test_gradient_response_proportional () =
  (* A sharply growing RTT cuts the rate faster than a slowly growing
     one. *)
  let fast = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  let slow = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  for i = 1 to 10 do
    Erpc.Timely.update fast ~sample_rtt_ns:(60_000 + (i * 40_000));
    Erpc.Timely.update slow ~sample_rtt_ns:(60_000 + (i * 1_000))
  done;
  check_bool "steeper gradient, lower rate" true
    (Erpc.Timely.rate_bps fast < Erpc.Timely.rate_bps slow)

let test_bypass_needs_uncongested () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  Erpc.Timely.set_rate_bps t 10e9;
  check_bool "congested session never bypasses" false (Erpc.Timely.bypassable t ~rtt_ns:10_000);
  Erpc.Timely.set_rate_bps t 25e9;
  check_bool "bypasses again at link rate" true (Erpc.Timely.bypassable t ~rtt_ns:10_000)

let test_bypass_threshold_is_t_low () =
  let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
  check_bool "10 us" true (Erpc.Timely.bypassable t ~rtt_ns:10_000);
  check_bool "just below 50 us" true (Erpc.Timely.bypassable t ~rtt_ns:49_999);
  check_bool "at 50 us" false (Erpc.Timely.bypassable t ~rtt_ns:50_000);
  check_bool "90 us" false (Erpc.Timely.bypassable t ~rtt_ns:90_000)

(* The bypass is sound only if skipping the update changes nothing: from
   any prior RTT, an update with a bypassable sample leaves the rate at
   the link's maximum. *)
let bypass_skips_only_noop_updates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bypassable sample leaves rate at max" ~count:200
       QCheck2.Gen.(pair (int_range 1_000 3_000_000) (int_range 0 120_000))
       (fun (prev_rtt, rtt) ->
         let t = Erpc.Timely.create (cc ()) ~link_gbps:25.0 in
         Erpc.Timely.update t ~sample_rtt_ns:prev_rtt;
         Erpc.Timely.set_rate_bps t 25e9;
         (not (Erpc.Timely.bypassable t ~rtt_ns:rtt))
         ||
         (Erpc.Timely.update t ~sample_rtt_ns:rtt;
          Erpc.Timely.uncongested t && Erpc.Timely.rate_bps t = 25e9)))

let test_phase_staggers_first_update () =
  let t = Erpc.Timely.create ~phase:3 (cc ~samples_per_update:8 ()) ~link_gbps:25.0 in
  for _ = 1 to 4 do
    Erpc.Timely.update t ~sample_rtt_ns:2_000_000
  done;
  Alcotest.(check int) "no update after 4 samples" 0 (Erpc.Timely.updates t);
  Erpc.Timely.update t ~sample_rtt_ns:2_000_000;
  Alcotest.(check int) "first update at the 5th sample" 1 (Erpc.Timely.updates t);
  for _ = 1 to 8 do
    Erpc.Timely.update t ~sample_rtt_ns:2_000_000
  done;
  Alcotest.(check int) "then every 8 samples" 2 (Erpc.Timely.updates t)

let suite =
  [
    Alcotest.test_case "starts uncongested" `Quick test_starts_uncongested;
    Alcotest.test_case "low RTT keeps max" `Quick test_low_rtt_keeps_max_rate;
    Alcotest.test_case "high RTT decreases" `Quick test_high_rtt_decreases_rate;
    Alcotest.test_case "above t_high decreases" `Quick test_above_t_high_decreases;
    Alcotest.test_case "min rate clamp" `Quick test_min_rate_clamp;
    Alcotest.test_case "recovery" `Quick test_recovery_after_congestion;
    Alcotest.test_case "pacing delay" `Quick test_pacing_delay;
    Alcotest.test_case "sample batching" `Quick test_samples_per_update_batching;
    Alcotest.test_case "gradient proportionality" `Quick test_gradient_response_proportional;
    Alcotest.test_case "bypass needs uncongested" `Quick test_bypass_needs_uncongested;
    Alcotest.test_case "bypass threshold is t_low" `Quick test_bypass_threshold_is_t_low;
    bypass_skips_only_noop_updates;
    Alcotest.test_case "phase staggers first update" `Quick test_phase_staggers_first_update;
  ]
