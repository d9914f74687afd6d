(* Chaos harness acceptance: >= 20 seeded fault schedules, each mixing
   >= 4 fault kinds, all recovery invariants green, and byte-identical
   traces when a seed is rerun. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_suite_invariants () =
  let runs = Experiments.Chaos.run_suite ~seeds:20 () in
  check_int "20 schedules ran" 20 (List.length runs);
  List.iter
    (fun (r : Experiments.Chaos.run_result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld: invariants hold" r.seed)
        [] r.violations;
      check_bool
        (Printf.sprintf "seed %Ld: >= 4 fault kinds" r.seed)
        true (r.fault_kinds >= 4);
      check_int
        (Printf.sprintf "seed %Ld: every request completed" r.seed)
        r.issued (r.ok + r.failed))
    runs;
  let traces rs = List.map (fun (r : Experiments.Chaos.run_result) -> r.trace) rs in
  check_bool "same seed => byte-identical trace" true
    (traces runs = traces (Experiments.Chaos.run_suite ~seeds:20 ()));
  (* The suite must actually exercise recovery machinery, not idle through
     a quiet network. *)
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  check_bool "retransmissions exercised" true
    (total (fun (r : Experiments.Chaos.run_result) -> r.retransmits) > 0);
  check_bool "session resets exercised" true
    (total (fun (r : Experiments.Chaos.run_result) -> r.session_resets) > 0);
  check_bool "checksum drops exercised" true
    (total (fun (r : Experiments.Chaos.run_result) -> r.rx_corrupt) > 0);
  check_bool "some requests failed (faults bit)" true
    (total (fun (r : Experiments.Chaos.run_result) -> r.failed) > 0);
  check_bool "most requests still succeeded" true
    (total (fun (r : Experiments.Chaos.run_result) -> r.ok)
    > total (fun (r : Experiments.Chaos.run_result) -> r.failed))

let test_single_run_trace_stable () =
  let r1 = Experiments.Chaos.run_one ~seed:4242L () in
  let r2 = Experiments.Chaos.run_one ~seed:4242L () in
  check_bool "traces byte-identical" true (r1.trace = r2.trace);
  check_bool "trace non-trivial" true (String.length r1.trace > 0)

let suite =
  [
    Alcotest.test_case "20-seed suite invariants" `Quick test_suite_invariants;
    Alcotest.test_case "single-run trace stable" `Quick test_single_run_trace_stable;
  ]
