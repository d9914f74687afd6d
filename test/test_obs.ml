(* Observability subsystem: event-trace ring, Chrome JSON export, the JSON
   builder/validator, the metrics registry, latency anatomy, and the
   determinism contract (same seed => byte-identical trace). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_ring_eviction () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.instant tr ~ts:i ~cat:"t" ~name:"e" ~pid:0 ~tid:0 []
  done;
  check_int "length capped" 4 (Obs.Trace.length tr);
  check_int "dropped counted" 2 (Obs.Trace.dropped tr);
  let ts = List.map (fun (e : Obs.Trace.ev) -> e.ts) (Obs.Trace.events tr) in
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5; 6 ] ts

let test_disabled_trace () =
  let tr = Obs.Trace.disabled in
  check_bool "disabled" false (Obs.Trace.enabled tr);
  Obs.Trace.instant tr ~ts:1 ~cat:"t" ~name:"e" ~pid:0 ~tid:0 [];
  Obs.Trace.register_process tr ~pid:0 "p";
  check_int "register_track is a no-op" 0 (Obs.Trace.register_track tr ~pid:0 "x");
  check_int "nothing recorded" 0 (Obs.Trace.length tr);
  check_int "nothing dropped" 0 (Obs.Trace.dropped tr)

let test_chrome_export_validates () =
  let tr = Obs.Trace.create ~capacity:64 () in
  Obs.Trace.register_process tr ~pid:0 "network";
  let tid = Obs.Trace.register_track tr ~pid:0 "port \"x\"\\y" in
  check_int "tids start at 1" 1 tid;
  Obs.Trace.instant tr ~ts:1_234 ~cat:"net" ~name:"enq" ~pid:0 ~tid
    [ ("id", Obs.Trace.I 7); ("why", Obs.Trace.S "quote\"back\\slash\ntab\t") ];
  Obs.Trace.complete tr ~ts:2_000 ~dur:500 ~cat:"rpc" ~name:"handler" ~pid:1 ~tid:0
    [ ("gbps", Obs.Trace.F 12.5) ];
  Obs.Trace.counter tr ~ts:3_000 ~cat:"net" ~name:"queue" ~pid:0
    [ ("bytes", Obs.Trace.I 4096) ];
  let s = Obs.Trace.to_chrome_string tr in
  check_bool "chrome trace is well-formed JSON" true (Json_check.validate s);
  check_bool "ns as fixed-point us" true
    (let sub = {|"ts":1.234|} in
     let rec find i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let test_json_builder_and_validator () =
  let j =
    Obs.Json.(
      Obj
        [
          ("s", Str "a\"b\\c\n\x01");
          ("n", Int (-42));
          ("f", Float 0.125);
          ("nan", Float nan);
          ("l", Arr [ Null; Bool true; Bool false; Obj [] ]);
        ])
  in
  let s = Obs.Json.to_string j in
  check_bool "builder output validates" true (Json_check.validate s);
  check_string "non-finite floats clamp to 0" "0" (Obs.Json.float_repr nan);
  List.iter
    (fun ok -> check_bool ("valid: " ^ ok) true (Json_check.validate ok))
    [ "null"; " [1,2,3] "; {|{"a":[{"b":-1.5e-3}]}|}; {|""|}; "[]" ];
  List.iter
    (fun bad -> check_bool ("invalid: " ^ bad) false (Json_check.validate bad))
    [
      "";
      "{";
      "[1,]";
      {|{"a":1,}|};
      {|{"a" 1}|};
      "tru";
      "01";
      "1 2";
      {|{"a":}|};
      "[1,2";
      {|"unterminated|};
      {|"bad \x escape"|};
    ]

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let n = ref 3 in
  Obs.Metrics.counter m ~name:"c" ~labels:[ ("k", "b") ] (fun () -> !n);
  Obs.Metrics.counter m ~name:"c" ~labels:[ ("k", "a") ] (fun () -> 10);
  Obs.Metrics.counter m ~name:"d" (fun () -> 100);
  Obs.Metrics.gauge m ~name:"g" ~labels:[ ("i", "0") ] (fun () -> 1.5);
  Obs.Metrics.gauge m ~name:"g" ~labels:[ ("i", "1") ] (fun () -> 9.0);
  Obs.Metrics.gauge m ~name:"c" (fun () -> 1000.);
  n := 5;
  (* Pull-based: a fold reads each counter's current value, and only the
     counters registered under its name. *)
  check_int "fold_counters sums live values" 15
    (Obs.Metrics.fold_counters m ~name:"c" (fun acc _ v -> acc + v) 0);
  Alcotest.(check (list string))
    "fold_counters sees each series' labels" [ "a"; "b" ]
    (List.sort compare
       (Obs.Metrics.fold_counters m ~name:"c" (fun acc labels _ -> List.assoc "k" labels :: acc) []));
  Alcotest.(check (float 1e-9)) "max_gauge" 9.0 (Obs.Metrics.max_gauge m ~name:"g");
  Alcotest.(check (float 1e-9)) "max_gauge of no gauges" 0. (Obs.Metrics.max_gauge m ~name:"d")

(* Every Rpc owns its own wire device, so a host with two Rpcs has two
   NICs: the nic.* series must count both, not only the last one created
   on the host. *)
let test_nic_metrics_per_rpc () =
  let d =
    Experiments.Harness.deploy ~seed:5L (Transport.Cluster.cx5 ~nodes:2 ())
      ~threads_per_host:2 ~register:Experiments.Harness.register_echo
  in
  Array.iteri
    (fun thread rpc ->
      let sess = Experiments.Harness.connect d rpc ~remote_host:1 ~remote_rpc_id:thread in
      Experiments.Harness.start_driver
        (Experiments.Harness.make_driver ~rng:(Sim.Rng.create 3L) ~rpc ~sessions:[| sess |]
           ~window:1 ()))
    d.rpcs.(0);
  Experiments.Harness.run_ms d 0.05;
  let m = Sim.Engine.metrics (Erpc.Fabric.engine d.fabric) in
  let series, summed =
    Obs.Metrics.fold_counters m ~name:"nic.rx_dropped_no_desc"
      (fun (n, sum) _ v -> (n + 1, sum + v))
      (0, 0)
  in
  let total f =
    Array.fold_left
      (Array.fold_left (fun acc rpc -> acc + f (Erpc.Rpc.transport rpc)))
      0 d.rpcs
  in
  check_bool "traffic flowed" true (total Transport.Iface.tx_packets > 16);
  check_int "series sum to the devices' RX drops" (total Transport.Iface.rx_dropped) summed;
  check_int "one series per device" 4 series

let test_anatomy_sums_exactly () =
  let r = Experiments.Exp_anatomy.run ~samples:16 () in
  check_bool "sampled RPCs analyzed" true (List.length r.breakdowns >= 8);
  List.iter
    (fun (b : Obs.Anatomy.breakdown) ->
      check_int
        (Printf.sprintf "req %d: components sum to end-to-end" b.req)
        b.total_ns
        (Obs.Anatomy.sum_components b);
      (* 32 B request and response both ride 92 B wire packets; on a quiet
         single-switch net the fabric time is exactly the model's
         prediction, so the switch-queue residual is zero. *)
      check_int
        (Printf.sprintf "req %d: wire matches cost-model prediction" b.req)
        (2 * r.predicted_wire_ns 92)
        b.wire_ns;
      check_int (Printf.sprintf "req %d: no switch queueing" b.req) 0 b.switch_ns;
      check_int (Printf.sprintf "req %d: no pacing" b.req) 0 b.pacing_ns;
      check_bool "total positive" true (b.total_ns > 0))
    r.breakdowns

let test_anatomy_typed_nonzero_codec_terms () =
  (* A typed echo must surface all four codec components, they must be
     carved out of (not added on top of) the enclosing software intervals,
     and the breakdown must still sum exactly to end-to-end. *)
  let r = Experiments.Exp_anatomy.run ~samples:16 ~typed:true () in
  check_bool "sampled RPCs analyzed" true (List.length r.breakdowns >= 8);
  List.iter
    (fun (b : Obs.Anatomy.breakdown) ->
      check_int
        (Printf.sprintf "req %d: typed components sum to end-to-end" b.req)
        b.total_ns
        (Obs.Anatomy.sum_components b);
      check_bool "req serialize charged" true (b.req_ser_ns > 0);
      check_bool "req deserialize charged" true (b.req_deser_ns > 0);
      check_bool "resp serialize charged" true (b.resp_ser_ns > 0);
      check_bool "resp deserialize charged" true (b.resp_deser_ns > 0);
      check_bool "client tx residual nonneg" true (b.client_tx_ns >= 0);
      check_bool "server residual nonneg" true (b.server_ns >= 0);
      check_bool "client rx residual nonneg" true (b.client_rx_ns >= 0))
    r.breakdowns;
  (* Untyped runs keep all codec terms at zero. *)
  let u = Experiments.Exp_anatomy.run ~samples:8 () in
  List.iter
    (fun (b : Obs.Anatomy.breakdown) ->
      check_int "untyped: no ser" 0 b.req_ser_ns;
      check_int "untyped: no deser" 0 (b.req_deser_ns + b.resp_ser_ns + b.resp_deser_ns))
    u.breakdowns

(* Every transport's probe passes its own check: nothing dropped, and the
   shm breakdowns carry their transit in the ring. *)
let test_anatomy_clean_on_every_transport () =
  List.iter
    (fun transport ->
      let r = Experiments.Exp_anatomy.run ~samples:8 ~transport () in
      check_bool "sampled RPCs analyzed" true (r.breakdowns <> []);
      Alcotest.(check (list string)) "no violation" [] r.violations)
    [ `Raw_eth; `Rdma_rc; `Shm ]

(* A caller's ring too small for the samples loses records, and the run
   says so once. *)
let test_anatomy_reports_dropped_records () =
  let trace = Obs.Trace.create ~capacity:64 () in
  let r = Experiments.Exp_anatomy.run ~trace ~samples:8 () in
  check_bool "the ring dropped records" true (Obs.Trace.dropped trace > 0);
  Alcotest.(check (list string))
    "one dropped-records violation"
    [ Printf.sprintf "the trace ring dropped %d records" (Obs.Trace.dropped trace) ]
    r.violations

(* The bursty mixed-size scenario, scaled down, looked up by name as the
   CLI does. *)
let bursty_mixed () =
  Option.get (Workload.Traffic_spec.of_name ~scale:0.25 ~horizon_ms:10.0 "bursty-mixed")

let test_anatomy_sums_under_open_loop_load () =
  (* The exact-sum invariant must survive pacing and queueing: drive the
     bursty mixed-size scenario open-loop (synchronized on-off bursts +
     64 kB transfers guarantee switch queueing) and re-check every
     client-host breakdown. *)
  let scenario = bursty_mixed () in
  let r = Experiments.Kv_runner.run ~seed:5L scenario in
  check_bool
    (Printf.sprintf "enough RPCs analyzed (%d)" r.analyzed_rpcs)
    true (r.analyzed_rpcs >= 50);
  List.iter
    (fun (b : Obs.Anatomy.breakdown) ->
      check_int
        (Printf.sprintf "req %d: components sum to end-to-end under load" b.req)
        b.total_ns
        (Obs.Anatomy.sum_components b);
      check_bool "total positive" true (b.total_ns > 0))
    r.breakdowns;
  (* Open-loop bursts actually produce queueing, unlike the quiet
     closed-loop anatomy run where switch_ns is exactly zero. *)
  check_bool "switch queueing observed" true
    (List.exists (fun (b : Obs.Anatomy.breakdown) -> b.switch_ns > 0) r.breakdowns)

let test_anatomy_attribution () =
  let scenario = bursty_mixed () in
  let r = Experiments.Kv_runner.run ~seed:5L scenario in
  match r.attribution with
  | None -> Alcotest.fail "no attribution from a loaded run"
  | Some a ->
      check_int "samples = analyzed RPCs" r.analyzed_rpcs a.samples;
      check_bool "percentiles ordered" true
        (a.p50_total_ns <= a.p99_total_ns && a.p99_total_ns <= a.p999_total_ns);
      List.iter
        (fun (label, v) -> check_bool (label ^ " p50 nonneg") true (v >= 0))
        a.p50_ns;
      List.iter
        (fun (label, v) -> check_bool (label ^ " p99 nonneg") true (v >= 0))
        a.p99_ns;
      check_bool "p50 dominant is a component" true
        (List.mem_assoc a.p50_dominant a.p50_ns);
      check_bool "p99 dominant is a component" true
        (List.mem_assoc a.p99_dominant a.p99_ns);
      (* The dominant component holds the band's largest mean. *)
      let is_max parts dom =
        List.for_all (fun (_, v) -> v <= List.assoc dom parts) parts
      in
      check_bool "p50 dominant maximal" true (is_max a.p50_ns a.p50_dominant);
      check_bool "p99 dominant maximal" true (is_max a.p99_ns a.p99_dominant);
      check_bool "attribution JSON validates" true
        (Json_check.validate (Obs.Json.to_string (Obs.Anatomy.attribution_to_json a)))

let test_trace_digest () =
  let mk () =
    let tr = Obs.Trace.create ~capacity:8 () in
    Obs.Trace.instant tr ~ts:1 ~cat:"a" ~name:"x" ~pid:0 ~tid:0
      [ ("i", Obs.Trace.I 7); ("f", Obs.Trace.F 1.5); ("s", Obs.Trace.S "v") ];
    Obs.Trace.complete tr ~ts:2 ~dur:3 ~cat:"b" ~name:"y" ~pid:1 ~tid:2 [];
    tr
  in
  let d1 = Obs.Trace.digest (mk ()) and d2 = Obs.Trace.digest (mk ()) in
  check_string "digest deterministic" d1 d2;
  check_int "16 hex chars" 16 (String.length d1);
  String.iter
    (fun c ->
      check_bool "hex" true ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d1;
  (* Any perturbation — payload, timestamp, or eviction count — changes it. *)
  let tr = mk () in
  Obs.Trace.instant tr ~ts:9 ~cat:"a" ~name:"x" ~pid:0 ~tid:0 [];
  check_bool "extra event changes digest" true (Obs.Trace.digest tr <> d1);
  let full = Obs.Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Obs.Trace.instant full ~ts:i ~cat:"a" ~name:"x" ~pid:0 ~tid:0 []
  done;
  let shifted = Obs.Trace.create ~capacity:2 () in
  for i = 2 to 5 do
    Obs.Trace.instant shifted ~ts:i ~cat:"a" ~name:"x" ~pid:0 ~tid:0 []
  done;
  (* Same retained events (ts 4,5) but different drop counts must differ. *)
  check_bool "dropped count folded in" true
    (Obs.Trace.digest full <> Obs.Trace.digest shifted)

let test_same_seed_traces_identical () =
  let run () =
    let r = Experiments.Exp_anatomy.run ~samples:8 () in
    Obs.Trace.to_chrome_string r.trace
  in
  check_string "same-seed anatomy traces byte-identical" (run ()) (run ())

let test_same_seed_incast_traces_identical () =
  let run () =
    let tr = Obs.Trace.create ~capacity:(1 lsl 18) () in
    let (_ : Experiments.Exp_incast.row) =
      Experiments.Exp_incast.run ~trace:tr ~degree:3 ~warmup_ms:0.5 ~measure_ms:0.5
        ~cc:true ()
    in
    Obs.Trace.to_chrome_string tr
  in
  let a = run () and b = run () in
  check_bool "trace non-trivial" true (String.length a > 10_000);
  check_string "same-seed incast traces byte-identical" a b

let test_trace_covers_categories () =
  let tr = Obs.Trace.create ~capacity:(1 lsl 18) () in
  (* Degree 4 over >= 2 ms: enough congestion for Timely to take RTT
     samples, so the "cc" category shows up. *)
  let r =
    Experiments.Exp_incast.run ~trace:tr ~degree:4 ~warmup_ms:1.0 ~measure_ms:1.0 ~cc:true
      ()
  in
  check_bool "buffer peak observed" true (r.switch_buffer_peak_bytes > 0);
  let seen = Hashtbl.create 8 in
  List.iter (fun (e : Obs.Trace.ev) -> Hashtbl.replace seen e.cat ()) (Obs.Trace.events tr);
  List.iter
    (fun cat -> check_bool ("category " ^ cat) true (Hashtbl.mem seen cat))
    [ "pkt"; "sslot"; "cc"; "net"; "nic"; "rpc" ]

let suite =
  [
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "disabled trace" `Quick test_disabled_trace;
    Alcotest.test_case "chrome export validates" `Quick test_chrome_export_validates;
    Alcotest.test_case "json builder+validator" `Quick test_json_builder_and_validator;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "nic metrics per Rpc" `Quick test_nic_metrics_per_rpc;
    Alcotest.test_case "anatomy sums exactly" `Quick test_anatomy_sums_exactly;
    Alcotest.test_case "anatomy: typed codec terms" `Quick
      test_anatomy_typed_nonzero_codec_terms;
    Alcotest.test_case "anatomy sums under open-loop load" `Quick
      test_anatomy_sums_under_open_loop_load;
    Alcotest.test_case "anatomy tail attribution" `Quick test_anatomy_attribution;
    Alcotest.test_case "anatomy clean on every transport" `Quick
      test_anatomy_clean_on_every_transport;
    Alcotest.test_case "anatomy reports dropped records" `Quick
      test_anatomy_reports_dropped_records;
    Alcotest.test_case "trace digest" `Quick test_trace_digest;
    Alcotest.test_case "same-seed trace identical" `Quick test_same_seed_traces_identical;
    Alcotest.test_case "same-seed incast identical" `Quick
      test_same_seed_incast_traces_identical;
    Alcotest.test_case "trace covers categories" `Quick test_trace_covers_categories;
  ]
