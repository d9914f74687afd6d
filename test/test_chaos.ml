(* Chaos suite acceptance: 20 seeded echo-chaos schedules through the one
   scenario runner, each mixing >= 4 fault kinds, the wire protocol's
   invariants green, and the same event trace when a seed is rerun. *)

module K = Experiments.Kv_runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let suite_runs () = Workload.Traffic_spec.echo_chaos_suite ~seed:42L ~seeds:20

let scheduled (s : Workload.Traffic_spec.scenario) =
  List.filter_map (function Workload.Traffic_spec.Scheduled e -> Some e | _ -> None) s.faults

let echo (r : K.result) =
  match r.tenants with [ t ] -> t.whole | _ -> Alcotest.fail "one echo tenant expected"

let test_suite_invariants () =
  let specs = suite_runs () in
  let runs = K.sweep ~jobs:1 specs in
  check_int "20 schedules ran" 20 (List.length runs);
  List.iter2
    (fun (_, s) (r : K.result) ->
      Alcotest.(check (list string)) (Printf.sprintf "seed %Ld: invariants hold" r.seed) []
        r.violations;
      check_bool
        (Printf.sprintf "seed %Ld: >= 4 fault kinds" r.seed)
        true
        (Faults.Schedule.num_kinds (scheduled s) >= 4);
      let w = echo r in
      check_int (Printf.sprintf "seed %Ld: every request completed" r.seed) w.issued
        (w.ok + w.failed);
      check_int (Printf.sprintf "seed %Ld: 120 requests" r.seed) 120 w.issued)
    specs runs;
  let traces rs = List.map (fun (r : K.result) -> (r.trace, r.digest)) rs in
  check_bool "same seed => byte-identical traces" true
    (traces runs = traces (K.sweep ~jobs:1 (suite_runs ())));
  (* The suite must actually exercise recovery machinery, not idle through
     a quiet network. *)
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  check_bool "retransmissions exercised" true (total (fun r -> r.K.retransmits) > 0);
  check_bool "session resets exercised" true (total (fun r -> r.K.session_resets) > 0);
  check_bool "checksum drops exercised" true (total (fun r -> r.K.rx_corrupt) > 0);
  check_bool "some requests failed (faults bit)" true (total (fun r -> (echo r).failed) > 0);
  check_bool "most requests still succeeded" true
    (total (fun r -> (echo r).ok) > total (fun r -> (echo r).failed))

let test_single_run_trace_stable () =
  let run () = K.run ~seed:4242L (Workload.Traffic_spec.echo_chaos ~seed:4242L) in
  let r1 = run () and r2 = run () in
  check_bool "fault traces byte-identical" true (r1.trace = r2.trace);
  Alcotest.(check string) "event-trace digests identical" r1.digest r2.digest;
  check_bool "trace non-trivial" true (String.length r1.trace > 0)

let suite =
  [
    Alcotest.test_case "20-seed suite invariants" `Quick test_suite_invariants;
    Alcotest.test_case "single-run trace stable" `Quick test_single_run_trace_stable;
  ]
