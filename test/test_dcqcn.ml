(* Tests for the DCQCN extension (ECN-based congestion control) and ECN
   marking in the fabric. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_starts_at_line_rate () =
  let d = Erpc.Dcqcn.create ~link_gbps:25.0 in
  check_bool "uncongested" true (Erpc.Dcqcn.uncongested d);
  Alcotest.(check (float 1.0)) "rate" 25e9 (Erpc.Dcqcn.rate_bps d)

let test_mark_cuts_rate () =
  let d = Erpc.Dcqcn.create ~link_gbps:25.0 in
  Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:100_000;
  check_bool "rate cut" true (Erpc.Dcqcn.rate_bps d < 25e9);
  check_int "one cut" 1 (Erpc.Dcqcn.cuts d)

let test_cut_rate_limited_by_cnp_interval () =
  let d = Erpc.Dcqcn.create ~link_gbps:25.0 in
  (* Many marks within one CNP interval: only one cut. *)
  for i = 0 to 9 do
    Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:(100_000 + (i * 1_000))
  done;
  check_int "one cut per interval" 1 (Erpc.Dcqcn.cuts d);
  Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:200_000;
  check_int "next interval cuts again" 2 (Erpc.Dcqcn.cuts d)

let test_recovers_without_marks () =
  let d = Erpc.Dcqcn.create ~link_gbps:25.0 in
  for i = 0 to 4 do
    Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:(100_000 + (i * 60_000))
  done;
  let low = Erpc.Dcqcn.rate_bps d in
  check_bool "cut down" true (low < 25e9);
  (* Clean acks every 60 us for 100 ms: fast recovery then additive
     increase back to line rate. *)
  for i = 1 to 1_700 do
    Erpc.Dcqcn.on_ack d ~marked:false ~now_ns:(500_000 + (i * 60_000))
  done;
  check_bool "recovered to line rate" true (Erpc.Dcqcn.uncongested d)

let test_repeated_marks_cut_deeper () =
  let d = Erpc.Dcqcn.create ~link_gbps:25.0 in
  Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:100_000;
  let after_one = Erpc.Dcqcn.rate_bps d in
  for i = 1 to 5 do
    Erpc.Dcqcn.on_ack d ~marked:true ~now_ns:(100_000 + (i * 60_000))
  done;
  check_bool "sustained congestion cuts deeper" true (Erpc.Dcqcn.rate_bps d < after_one)

(* ECN marking at a simulated switch port. *)
let test_port_marks_when_queue_deep () =
  let e = Sim.Engine.create () in
  let marked = ref 0 and total = ref 0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:1.0 ~extra_delay_ns:0
      ~ecn:{ Netsim.Port.kmin_bytes = 5_000; kmax_bytes = 10_000; pmax = 1.0 }
      ~sink:(fun pkt ->
        incr total;
        if pkt.Netsim.Packet.ecn then incr marked)
      ()
  in
  for _ = 1 to 20 do
    ignore
      (Netsim.Port.send port
         (Netsim.Packet.make ~src:0 ~dst:1 ~size_bytes:1_000 ~flow_hash:0 Netsim.Packet.Empty))
  done;
  Sim.Engine.run e;
  check_int "all delivered" 20 !total;
  (* Queue passes kmin after 5 packets and kmax after 10: the tail of the
     burst is deterministically marked. *)
  check_bool (Printf.sprintf "deep-queue packets marked (%d)" !marked) true (!marked >= 8)

let test_no_marks_when_disabled () =
  let e = Sim.Engine.create () in
  let marked = ref 0 in
  let port =
    Netsim.Port.create e ~packets:(Netsim.Packet.create_table ()) ~name:"p" ~rate_gbps:1.0 ~extra_delay_ns:0
      ~sink:(fun pkt -> if pkt.Netsim.Packet.ecn then incr marked)
      ()
  in
  for _ = 1 to 20 do
    ignore
      (Netsim.Port.send port
         (Netsim.Packet.make ~src:0 ~dst:1 ~size_bytes:1_000 ~flow_hash:0 Netsim.Packet.Empty))
  done;
  Sim.Engine.run e;
  check_int "no ECN without config" 0 !marked

(* End to end: a DCQCN incast keeps the victim queue below the no-cc
   level. *)
let test_dcqcn_controls_incast () =
  let with_cc =
    Experiments.Exp_incast.run ~algo:Erpc.Config.Dcqcn ~degree:20 ~cc:true ~warmup_ms:10.0
      ~measure_ms:15.0 ()
  in
  let without =
    Experiments.Exp_incast.run ~degree:20 ~cc:false ~warmup_ms:10.0 ~measure_ms:15.0 ()
  in
  check_bool
    (Printf.sprintf "DCQCN cuts median queueing (%.0f vs %.0f us)" with_cc.rtt_p50_us
       without.rtt_p50_us)
    true
    (with_cc.rtt_p50_us < 0.7 *. without.rtt_p50_us)

let suite =
  [
    Alcotest.test_case "starts at line rate" `Quick test_starts_at_line_rate;
    Alcotest.test_case "mark cuts rate" `Quick test_mark_cuts_rate;
    Alcotest.test_case "CNP interval rate-limits cuts" `Quick
      test_cut_rate_limited_by_cnp_interval;
    Alcotest.test_case "recovers without marks" `Quick test_recovers_without_marks;
    Alcotest.test_case "sustained marks cut deeper" `Quick test_repeated_marks_cut_deeper;
    Alcotest.test_case "port marks deep queues" `Quick test_port_marks_when_queue_deep;
    Alcotest.test_case "no marks when disabled" `Quick test_no_marks_when_disabled;
    Alcotest.test_case "DCQCN controls incast" `Slow test_dcqcn_controls_incast;
  ]
