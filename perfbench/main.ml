(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--quick] [--min-reps N] [--out DIR]

   With --trace 0, repeats the workload (same seed, fresh deployment each
   time) until S seconds have passed, checks that every repetition
   simulated exactly the same thing, and reports the end-to-end metrics:
   host costs as medians over the repetitions after the first, scaled to
   the nominal core, and simulated metrics from the (identical)
   repetitions. With --trace 1, runs the workload once
   untraced and once with the simulator's event trace and host-time spans
   on, checks that both simulated the same thing, and reports the
   per-layer metrics. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Any failed check prints
   the violation to standard error and exits 1. --quick shortens every
   simulated horizon for the self-check. *)

open Common

let workloads =
  [ ("small-rpc", Small_rpc.run); ("kv-service", Kv_service.run); ("incast", Incast.run) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us_per_op r = if r.ops = 0 then 0. else r.timed_s *. 1e6 /. float_of_int r.ops

(* Everything a same-seed repetition must reproduce exactly. *)
let same_sim a b = a.sim = b.sim && a.layers = b.layers && a.digest = b.digest

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let meta ~workload ~seed ~reps =
  Printf.sprintf
    "# meta {\"workload\": %S, \"seed\": %d, \"repetitions\": %d, \"host_cores\": %d, \
     \"ocaml\": %S, \"commit\": %S}"
    workload seed reps
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")

let print_metrics ms =
  List.iter (fun x -> Printf.printf "  %-32s %18s %s\n" x.name (number x.value) x.unit) ms

(* One repetition, its host costs scaled to the nominal core (see
   [Common.Speed]). *)
let scaled run ~traced =
  Speed.reset ();
  let r = run ~traced in
  let f = Speed.factor () in
  Printf.printf "repetition: %.2f us/op, reference loop at %.3fx its nominal time\n"
    (us_per_op r) (1. /. f);
  { r with setup_s = r.setup_s *. f; timed_s = r.timed_s *. f }

(* The first repetition also warms the process up (heap growth, page
   faults), so host costs are medians over the repetitions after it; the
   peak heap is read right after it, so it does not depend on how many
   repetitions fit in the time. *)
let untraced ~run ~seconds ~min_reps =
  let start = now_ns () in
  let first = scaled run ~traced:false in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let rec loop acc =
    if List.length acc >= min_reps && float_of_int (now_ns () - start) /. 1e9 >= seconds then
      List.rev acc
    else loop (scaled run ~traced:false :: acc)
  in
  let reps = loop [ first ] in
  let timed = match reps with _ :: (_ :: _ as rest) -> rest | _ -> reps in
  Printf.printf "host_us_per_op by repetition: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" (us_per_op r)) reps));
  let violations =
    if List.for_all (same_sim first) reps then []
    else [ "determinism: same-seed repetitions simulated different outcomes" ]
  in
  let metrics =
    [
      m "host_us_per_op" "us" (median (List.map us_per_op timed));
      m "setup_s" "s" (median (List.map (fun r -> r.setup_s) timed));
      m "peak_heap_mb" "MiB" heap_mb;
    ]
    @ first.sim
  in
  (first, reps, metrics, violations)

let traced ~run ~out ~workload =
  let plain = scaled run ~traced:false in
  Gc_pauses.reset ();
  Spans.start ~capacity:(1 lsl 22);
  let tr = scaled run ~traced:true in
  Spans.stop ();
  let violations =
    if same_sim plain tr then []
    else [ "traced run: simulated metrics or end-state digest differ from the untraced run" ]
  in
  let pick names l = List.filter (fun x -> List.mem x.name names) l in
  let overhead =
    if us_per_op plain = 0. then 0. else ((us_per_op tr /. us_per_op plain) -. 1.) *. 100.
  in
  let metrics =
    tr.layers @ tr.traced_layers
    @ pick
        [
          "gc.minor_words_per_event";
          "gc.promoted_words_per_event";
          "gc.major_collections";
          "sim.queue_depth_max";
        ]
        plain.host_layers
    @ pick [ "gc.pause_ms"; "sim.host_ns_per_event"; "workload.host_ns_per_arrival" ]
        tr.host_layers
    @ [ m "obs.trace_overhead_pct" "%" overhead ]
  in
  (try
     if not (Sys.file_exists out) then Sys.mkdir out 0o755;
     Obs.Trace.write_chrome_file !Spans.store
       (Filename.concat out (workload ^ ".spans.json"))
   with Sys_error e -> prerr_endline ("perfbench: cannot write spans: " ^ e));
  (tr, metrics, violations)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false and out = ref "_perfbench_out" and min_reps = ref 4 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME small-rpc | kv-service | incast");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the untraced run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--quick", Arg.Set quick, " shorten every simulated horizon (self-check)");
      ("--min-reps", Arg.Set_int min_reps, "N least number of untraced repetitions (default 4)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f ~seed:(Int64.of_int !seed) ~quick:!quick
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let rep, reps, metrics, violations =
    if !trace = 0 then untraced ~run ~seconds:!seconds ~min_reps:(max 1 !min_reps)
    else
      let rep, metrics, v = traced ~run ~out:!out ~workload:!workload in
      (rep, [ rep ], metrics, v)
  in
  let violations =
    rep.violations @ violations
    @ (if rep.failed > 0 then [ Printf.sprintf "%d operations failed" rep.failed ] else [])
    @ List.filter_map
        (fun x ->
          if Float.is_finite x.value then None else Some ("non-finite metric " ^ x.name))
        metrics
  in
  Printf.printf "%s\n" (meta ~workload:!workload ~seed:!seed ~reps:(List.length reps));
  Printf.printf "workload %s seed %d: %d ops attempted, %d failed\n" !workload !seed
    rep.attempted rep.failed;
  List.iter (fun n -> Printf.printf "  %s\n" n) rep.notes;
  Printf.printf
    "  (paper figures are the numbers the model is calibrated against, not a validation \
     on held-out hardware)\n";
  print_metrics metrics;
  List.iter (fun v -> prerr_endline ("perfbench: VIOLATION " ^ v)) violations;
  print_endline
    (result_line ~correct:(violations = []) ~attempted:rep.attempted ~failed:rep.failed
       metrics);
  if violations <> [] then exit 1
