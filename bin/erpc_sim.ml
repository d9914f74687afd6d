(* erpc_sim: parameterized command-line runner for individual experiments.

   `bench/main.exe` regenerates the paper's tables and figures with fixed
   parameters; this tool exposes the same experiments with the knobs open
   (cluster, degree, credits, loss rate, congestion-control algorithm, ...)
   for exploration. *)

open Cmdliner

let cluster_conv =
  let parse = function
    | "cx3" -> Ok `Cx3
    | "cx4" -> Ok `Cx4
    | "cx5" -> Ok `Cx5
    | "cx5-ib100" -> Ok `Cx5_ib100
    | s -> Error (`Msg (Printf.sprintf "unknown cluster %S (cx3|cx4|cx5|cx5-ib100)" s))
  in
  let print fmt c =
    Format.pp_print_string fmt
      (match c with `Cx3 -> "cx3" | `Cx4 -> "cx4" | `Cx5 -> "cx5" | `Cx5_ib100 -> "cx5-ib100")
  in
  Arg.conv (parse, print)

let build_cluster ?nodes = function
  | `Cx3 -> Transport.Cluster.cx3 ?nodes ()
  | `Cx4 -> Transport.Cluster.cx4 ?nodes ()
  | `Cx5 -> Transport.Cluster.cx5 ?nodes ()
  | `Cx5_ib100 -> Transport.Cluster.cx5_ib100 ()

let cluster_arg default =
  Arg.(value & opt cluster_conv default & info [ "cluster" ] ~docv:"NAME" ~doc:"Cluster profile.")

let nodes_arg =
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N" ~doc:"Override node count.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON (the bench BENCH_*.json schema).")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "OCaml domains to fan independent runs across (results are identical to \
           --jobs 1; see Par_sweep).")

(* The bench BENCH_*.json schema: one object per benchmark with labeled
   rows. *)
let print_bench_json ~benchmark ~unit rows =
  print_string
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("benchmark", Obs.Json.Str benchmark);
            ("unit", Obs.Json.Str unit);
            ("rows", Obs.Json.Arr rows);
          ]));
  print_newline ()

(* latency *)
let latency_cmd =
  let run cluster nodes samples =
    let c = build_cluster ?nodes cluster in
    let r = Experiments.Exp_latency.measure ~samples c in
    Printf.printf "%s: RDMA read %.1f us, eRPC %.1f us (p99 %.1f us)\n" r.cluster r.rdma_read_us
      r.erpc_us r.erpc_p99_us
  in
  let samples =
    Arg.(value & opt int 2_000 & info [ "samples" ] ~docv:"N" ~doc:"RPCs to measure.")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Table 2: median 32 B RPC vs RDMA-read latency")
    Term.(const run $ cluster_arg `Cx5 $ nodes_arg $ samples)

(* rate *)
let rate_cmd =
  let run cluster nodes batch window fasst json =
    let c = build_cluster ?nodes cluster in
    let r =
      if fasst then Experiments.Exp_small_rate.run_fasst ~cluster:c ~batch ()
      else Experiments.Exp_small_rate.run ~cluster:c ~window ~batch ()
    in
    if json then
      print_bench_json ~benchmark:"small_rate" ~unit:"Mrps"
        [
          Obs.Json.Obj
            [
              ("cluster", Obs.Json.Str c.name);
              ("batch", Obs.Json.Int batch);
              ("per_thread_mrps", Obs.Json.Float r.per_thread_mrps);
              ("total_rpcs", Obs.Json.Int r.total_rpcs);
              ("retransmits", Obs.Json.Int r.retransmits);
            ];
        ]
    else
      Printf.printf "%s B=%d: %.2f Mrps/thread (%d RPCs, %d retransmits)\n" c.name batch
        r.per_thread_mrps r.total_rpcs r.retransmits
  in
  let batch = Arg.(value & opt int 3 & info [ "batch" ] ~docv:"B" ~doc:"Requests per batch.") in
  let window =
    Arg.(value & opt int 60 & info [ "window" ] ~docv:"N" ~doc:"Requests in flight per thread.")
  in
  let fasst =
    Arg.(value & flag & info [ "fasst" ] ~doc:"Run the FaSST-like specialized baseline.")
  in
  Cmd.v
    (Cmd.info "rate" ~doc:"Figure 4: single-core small-RPC rate")
    Term.(const run $ cluster_arg `Cx4 $ nodes_arg $ batch $ window $ fasst $ json_arg)

(* bandwidth *)
let bandwidth_cmd =
  let run req_size credits loss requests json =
    let p = Experiments.Exp_bandwidth.erpc_goodput ~credits ~requests ~loss ~req_size () in
    if json then
      print_bench_json ~benchmark:"bandwidth" ~unit:"Gbps"
        [
          Obs.Json.Obj
            [
              ("req_size", Obs.Json.Int p.req_size);
              ("loss", Obs.Json.Float loss);
              ("goodput_gbps", Obs.Json.Float p.goodput_gbps);
              ("retransmits", Obs.Json.Int p.retransmits);
            ];
        ]
    else
      Printf.printf "%d-byte requests: %.1f Gbps (%d retransmissions)\n" req_size
        p.goodput_gbps p.retransmits
  in
  let req_size =
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "size" ] ~docv:"BYTES" ~doc:"Request size.")
  in
  let credits =
    Arg.(value & opt int 32 & info [ "credits" ] ~docv:"C" ~doc:"Session credits.")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Injected packet-loss rate.")
  in
  let requests =
    Arg.(value & opt int 8 & info [ "requests" ] ~docv:"N" ~doc:"Requests to measure.")
  in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Figure 6 / Table 4: large-RPC goodput over 100 Gbps")
    Term.(const run $ req_size $ credits $ loss $ requests $ json_arg)

(* incast *)
let incast_row (r : Experiments.Exp_incast.row) =
  Obs.Json.Obj
    [
      ("degree", Obs.Json.Int r.degree);
      ("cc", Obs.Json.Bool r.cc);
      ("total_gbps", Obs.Json.Float r.total_gbps);
      ("rtt_p50_us", Obs.Json.Float r.rtt_p50_us);
      ("rtt_p99_us", Obs.Json.Float r.rtt_p99_us);
      ("switch_buffer_peak_bytes", Obs.Json.Int r.switch_buffer_peak_bytes);
      ("retransmits", Obs.Json.Int r.retransmits);
    ]

let incast_cmd =
  let run degree credits cc dcqcn measure_ms json =
    let algo = if dcqcn then Erpc.Config.Dcqcn else Erpc.Config.Timely in
    let r = Experiments.Exp_incast.run ~credits ~algo ~degree ~cc ~measure_ms () in
    if json then print_bench_json ~benchmark:"incast" ~unit:"Gbps" [ incast_row r ]
    else
      Printf.printf
        "%d-way incast (cc=%b%s): %.1f Gbps, RTT p50=%.0f us p99=%.0f us, buffer peak %d \
         kB, %d retransmits\n"
        r.degree r.cc
        (if dcqcn then ", DCQCN" else "")
        r.total_gbps r.rtt_p50_us r.rtt_p99_us
        (r.switch_buffer_peak_bytes / 1024)
        r.retransmits
  in
  let degree = Arg.(value & opt int 20 & info [ "degree" ] ~docv:"N" ~doc:"Incast degree.") in
  let credits =
    Arg.(value & opt int 32 & info [ "credits" ] ~docv:"C" ~doc:"Session credits.")
  in
  let cc =
    Arg.(value & opt bool true & info [ "cc" ] ~docv:"BOOL" ~doc:"Enable congestion control.")
  in
  let dcqcn = Arg.(value & flag & info [ "dcqcn" ] ~doc:"Use DCQCN instead of Timely.") in
  let measure =
    Arg.(value & opt float 30.0 & info [ "measure-ms" ] ~docv:"MS" ~doc:"Measured window.")
  in
  Cmd.v
    (Cmd.info "incast" ~doc:"Table 5: incast congestion control")
    Term.(const run $ degree $ credits $ cc $ dcqcn $ measure $ json_arg)

(* scalability *)
let scalability_cmd =
  let run nodes threads =
    let r = Experiments.Exp_scalability.run ?nodes ~threads () in
    Printf.printf
      "T=%d: %.1f Mrps/node; latency p50=%.1f p99=%.1f p99.9=%.1f p99.99=%.1f us; retx/s=%.0f\n"
      r.threads_per_node r.per_node_mrps r.lat_p50_us r.lat_p99_us r.lat_p999_us r.lat_p9999_us
      r.retransmits_per_node_per_sec
  in
  let threads =
    Arg.(value & opt int 1 & info [ "threads" ] ~docv:"T" ~doc:"Threads per node.")
  in
  Cmd.v
    (Cmd.info "scalability" ~doc:"Figure 5: 100-node scalability")
    Term.(const run $ nodes_arg $ threads)

(* raft *)
let raft_cmd =
  let run samples seed json out =
    let r = Experiments.Exp_raft.run ~samples () in
    Printf.printf
      "replicated PUT: client p50=%.1f p99=%.1f us; leader commit p50=%.1f p99=%.1f us (%d puts, %d errors)\n"
      r.client_p50_us r.client_p99_us r.leader_p50_us r.leader_p99_us r.puts r.errors;
    if json || out <> None then begin
      let doc =
        Obs.Json.Obj
          [
            ("benchmark", Obs.Json.Str "raft_kv");
            ("unit", Obs.Json.Str "us");
            ( "rows",
              Obs.Json.Arr
                [
                  Obs.Json.Obj
                    [
                      ("row", Obs.Json.Str "table6");
                      ("client_p50_us", Obs.Json.Float r.client_p50_us);
                      ("client_p99_us", Obs.Json.Float r.client_p99_us);
                      ("leader_p50_us", Obs.Json.Float r.leader_p50_us);
                      ("leader_p99_us", Obs.Json.Float r.leader_p99_us);
                      ("puts", Obs.Json.Int r.puts);
                      ("errors", Obs.Json.Int r.errors);
                    ];
                  Obs.Json.Obj
                    [
                      ("row", Obs.Json.Str "sharded_baseline");
                      ("detail", Experiments.Exp_kv_chaos.baseline_json ~seed ());
                    ];
                ] );
          ]
      in
      let s = Obs.Json.to_string doc in
      match out with
      | None ->
          print_string s;
          print_newline ()
      | Some file ->
          let oc = open_out file in
          output_string oc s;
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" file
    end
  in
  let samples = Arg.(value & opt int 3_000 & info [ "samples" ] ~docv:"N" ~doc:"PUTs.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the BENCH_raft_kv.json document here.")
  in
  Cmd.v
    (Cmd.info "raft" ~doc:"Table 6: 3-way replicated PUT latency (Raft over eRPC)")
    Term.(const run $ samples $ seed_arg $ json_arg $ out)

(* kv-chaos *)
let kv_chaos_cmd =
  let run seeds verbose json out jobs =
    let s = Experiments.Exp_kv_chaos.run_suite ~seeds ~jobs () in
    List.iter
      (fun r ->
        Format.printf "%a@." Experiments.Exp_kv_chaos.pp_run r;
        if verbose then print_string r.Experiments.Exp_kv_chaos.trace)
      s.runs;
    let bad =
      List.filter (fun r -> r.Experiments.Exp_kv_chaos.violations <> []) s.runs
      |> List.length
    in
    Printf.printf "%d/%d schedules clean; deterministic=%b\n" (seeds - bad) seeds
      s.deterministic;
    (if json || out <> None then
       let str = Obs.Json.to_string (Experiments.Exp_kv_chaos.suite_to_json s) in
       match out with
       | None ->
           print_string str;
           print_newline ()
       | Some file ->
           let oc = open_out file in
           output_string oc str;
           output_char oc '\n';
           close_out oc;
           Printf.printf "wrote %s\n" file);
    if bad > 0 || not s.deterministic then exit 1
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded fault schedules to run.")
  in
  let verbose = Arg.(value & flag & info [ "trace" ] ~doc:"Print each run's fault trace.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report here.")
  in
  Cmd.v
    (Cmd.info "kv-chaos"
       ~doc:
         "Replicated-KV failover chaos: availability timeline, tail latency and \
          exactly-once invariants under leader crashes, partitions and rolling restarts")
    Term.(const run $ seeds $ verbose $ json_arg $ out $ jobs_arg)

(* cluster-load *)
let cluster_load_cmd =
  let run scenario scale horizon_ms rerun seed json out jobs =
    let names =
      match scenario with
      | "all" -> List.map fst Workload.Traffic_spec.builtin
      | s when List.mem_assoc s Workload.Traffic_spec.builtin -> [ s ]
      | s ->
          failwith
            (Printf.sprintf "unknown scenario %S (all|%s)" s
               (String.concat "|" (List.map fst Workload.Traffic_spec.builtin)))
    in
    let results =
      if scenario = "all" then
        Experiments.Exp_cluster_load.run_all ~seed ~scale ~horizon_ms
          ~rerun_check:rerun ~jobs ()
      else
        List.map
          (fun name ->
            let r =
              Experiments.Exp_cluster_load.run_named ~seed ~scale ~horizon_ms name
            in
            if not rerun then r
            else
              let r2 =
                Experiments.Exp_cluster_load.run_named ~seed ~scale ~horizon_ms name
              in
              if r2.Experiments.Exp_cluster_load.digest
                 = r.Experiments.Exp_cluster_load.digest
              then r
              else
                {
                  r with
                  violations =
                    r.violations
                    @ [
                        Printf.sprintf "nondeterministic: rerun digest %s <> %s"
                          r2.Experiments.Exp_cluster_load.digest
                          r.Experiments.Exp_cluster_load.digest;
                      ];
                })
          names
    in
    List.iter (Format.printf "%a@." Experiments.Exp_cluster_load.pp_result) results;
    (if json || out <> None then
       let str =
         Obs.Json.to_string (Experiments.Exp_cluster_load.to_json results)
       in
       match out with
       | None ->
           print_string str;
           print_newline ()
       | Some file ->
           let oc = open_out file in
           output_string oc str;
           output_char oc '\n';
           close_out oc;
           Printf.printf "wrote %s\n" file);
    let bad =
      List.filter
        (fun r -> r.Experiments.Exp_cluster_load.violations <> [])
        results
      |> List.length
    in
    if bad > 0 then exit 1
  in
  let scenario =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario: all|steady-poisson|hot-key-shift|bursty-mixed|local-mesh.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F" ~doc:"Population scale factor on tenant source counts.")
  in
  let horizon =
    Arg.(
      value & opt float 100.0
      & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Measured open-loop window per scenario.")
  in
  let rerun =
    Arg.(
      value & flag
      & info [ "rerun" ]
          ~doc:"Run each scenario twice and fail if same-seed trace digests differ.")
  in
  Cmd.v
    (Cmd.info "cluster-load"
       ~doc:
         "Multi-tenant open-loop traffic (Poisson/bursty/hot-key-shift tenants over KV + \
          echo) with per-tenant P50/P99/P99.9 SLOs and P99 tail attribution")
    Term.(const run $ scenario $ scale $ horizon $ rerun $ seed_arg $ json_arg
          $ Arg.(
              value
              & opt (some string) None
              & info [ "out" ] ~docv:"FILE" ~doc:"Write BENCH_cluster_load.json here.")
          $ jobs_arg)

(* shm-bench *)
let shm_bench_cmd =
  let run samples rerun seed json out =
    let r = Experiments.Exp_shm_bench.run ~seed ~samples ~rerun_check:rerun () in
    Format.printf "%a" Experiments.Exp_shm_bench.pp_result r;
    (if json || out <> None then
       let str = Obs.Json.to_string (Experiments.Exp_shm_bench.to_json r) in
       match out with
       | None ->
           print_string str;
           print_newline ()
       | Some file ->
           let oc = open_out file in
           output_string oc str;
           output_char oc '\n';
           close_out oc;
           Printf.printf "wrote %s\n" file);
    if r.violations <> [] then exit 1
  in
  let samples =
    Arg.(
      value & opt int 24
      & info [ "samples" ] ~docv:"N" ~doc:"Sequential RPCs per (payload, mode) cell.")
  in
  let rerun =
    Arg.(
      value & flag
      & info [ "rerun" ]
          ~doc:"Run each cell twice and fail if same-seed trace digests differ.")
  in
  Cmd.v
    (Cmd.info "shm-bench"
       ~doc:
         "Intra-host serialize-vs-share benchmark: payload sweep over the shared-memory \
          rings with crossover, anatomy-zero and determinism checks")
    Term.(const run $ samples $ rerun $ seed_arg $ json_arg
          $ Arg.(
              value
              & opt (some string) None
              & info [ "out" ] ~docv:"FILE" ~doc:"Write BENCH_shm.json here."))

(* masstree *)
let masstree_cmd =
  let run workers =
    let r = Experiments.Exp_masstree.run ~workers () in
    Printf.printf "Masstree: %.1f M GET/s, GET p50=%.1f us p99=%.1f us, SCAN p99=%.1f us\n"
      r.gets_per_sec_m r.get_p50_us r.get_p99_us r.scan_p99_us
  in
  let workers =
    Arg.(value & opt bool true & info [ "workers" ] ~docv:"BOOL" ~doc:"Run scans in workers.")
  in
  Cmd.v
    (Cmd.info "masstree" ~doc:"§7.2: Masstree over eRPC")
    Term.(const run $ workers)

(* chaos *)
let chaos_cmd =
  let run seeds events requests verbose jobs =
    let s = Experiments.Chaos.run_suite ~seeds ~events ~requests ~jobs () in
    List.iter
      (fun r ->
        Format.printf "%a@." Experiments.Chaos.pp_run r;
        if verbose then print_string r.Experiments.Chaos.trace)
      s.runs;
    let bad =
      List.filter (fun r -> r.Experiments.Chaos.violations <> []) s.runs |> List.length
    in
    Printf.printf "%d/%d schedules clean; deterministic=%b\n" (seeds - bad) seeds
      s.deterministic;
    if bad > 0 || not s.deterministic then exit 1
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded schedules to run.")
  in
  let events =
    Arg.(value & opt int 12 & info [ "events" ] ~docv:"N" ~doc:"Fault events per schedule.")
  in
  let requests =
    Arg.(value & opt int 120 & info [ "requests" ] ~docv:"N" ~doc:"RPCs issued per run.")
  in
  let verbose = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.") in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Fault-injection chaos suite: invariants under seeded fault schedules")
    Term.(const run $ seeds $ events $ requests $ verbose $ jobs_arg)

(* anatomy *)
let anatomy_cmd =
  let run samples req_size typed backend offload transport seed json =
    let backend =
      match backend with
      | "compact" -> Codec.Compact
      | "flat" -> Codec.Flat
      | s -> failwith (Printf.sprintf "unknown codec backend %S (compact|flat)" s)
    in
    let transports =
      match transport with
      | "all" -> [ ("raw_eth", `Raw_eth); ("rdma_rc", `Rdma_rc); ("shm", `Shm) ]
      | "raw_eth" -> [ ("raw_eth", `Raw_eth) ]
      | "rdma_rc" -> [ ("rdma_rc", `Rdma_rc) ]
      | "shm" -> [ ("shm", `Shm) ]
      | s ->
          failwith
            (Printf.sprintf "unknown transport %S (all|raw_eth|rdma_rc|shm)" s)
    in
    let results =
      List.map
        (fun (name, tp) ->
          ( name,
            Experiments.Exp_anatomy.run ~seed ~samples ~req_size ~typed ~backend
              ~offload ~transport:tp () ))
        transports
    in
    if json then
      print_bench_json ~benchmark:"anatomy" ~unit:"ns"
        (List.concat_map
           (fun (name, (r : Experiments.Exp_anatomy.result)) ->
             List.map
               (fun (b : Obs.Anatomy.breakdown) ->
                 Obs.Json.Obj
                   (("transport", Obs.Json.Str name)
                   :: ("req", Obs.Json.Int b.req)
                   :: ("total_ns", Obs.Json.Int b.total_ns)
                   :: List.map
                        (fun (label, v) -> (label, Obs.Json.Int v))
                        (Obs.Anatomy.components b)))
               r.breakdowns)
           results)
    else
      List.iter
        (fun (name, (r : Experiments.Exp_anatomy.result)) ->
          Format.printf "transport %s:@.%a" name Obs.Anatomy.pp_table r.breakdowns)
        results
  in
  let samples =
    Arg.(value & opt int 32 & info [ "samples" ] ~docv:"N" ~doc:"Sequential RPCs to sample.")
  in
  let req_size =
    Arg.(value & opt int 32 & info [ "size" ] ~docv:"BYTES" ~doc:"Request size.")
  in
  let typed =
    Arg.(
      value & flag
      & info [ "typed" ] ~doc:"Issue typed (schema-carrying) echoes so ser/deser appear.")
  in
  let backend =
    Arg.(
      value & opt string "compact"
      & info [ "backend" ] ~docv:"B" ~doc:"Codec backend for --typed (compact|flat).")
  in
  let offload =
    Arg.(value & flag & info [ "offload" ] ~doc:"Model NIC-offloaded codec for --typed.")
  in
  let transport =
    Arg.(
      value & opt string "raw_eth"
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Datapath: raw_eth|rdma_rc|shm, or all to run the three-transport anatomy \
             in one command.")
  in
  Cmd.v
    (Cmd.info "anatomy"
       ~doc:"Latency anatomy: decompose quiet-network RPC latency into components")
    Term.(
      const run $ samples $ req_size $ typed $ backend $ offload $ transport $ seed_arg
      $ json_arg)

(* trace *)
let trace_cmd =
  let run exp out capacity seed degree warmup_ms measure_ms =
    let tr = Obs.Trace.create ~capacity () in
    (match exp with
    | `Incast ->
        let r =
          Experiments.Exp_incast.run ~seed ~trace:tr ~degree ~warmup_ms ~measure_ms
            ~cc:true ()
        in
        Printf.printf "incast degree=%d: %.1f Gbps, buffer peak %d kB, %d retransmits\n"
          r.degree r.total_gbps
          (r.switch_buffer_peak_bytes / 1024)
          r.retransmits
    | `Rate ->
        let c = Transport.Cluster.cx4 ~nodes:11 () in
        let r =
          Experiments.Exp_small_rate.run ~seed ~trace:tr ~cluster:c ~batch:3
            ~measure_ms ()
        in
        Printf.printf "rate: %.2f Mrps/thread\n" r.per_thread_mrps
    | `Bandwidth ->
        let p =
          Experiments.Exp_bandwidth.erpc_goodput ~seed ~trace:tr ~requests:4
            ~req_size:(1024 * 1024) ()
        in
        Printf.printf "bandwidth: %.1f Gbps\n" p.goodput_gbps
    | `Anatomy ->
        let r = Experiments.Exp_anatomy.run ~seed ~trace:tr () in
        Format.printf "%a" Obs.Anatomy.pp_table r.breakdowns);
    Obs.Trace.write_chrome_file tr out;
    let contents =
      let ic = open_in_bin out in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    if not (Obs.Json.validate contents) then begin
      Printf.eprintf "error: %s is not well-formed JSON\n" out;
      exit 1
    end;
    let by_cat = Hashtbl.create 16 in
    Obs.Trace.iter tr (fun e ->
        Hashtbl.replace by_cat e.cat
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_cat e.cat)));
    let cats = Hashtbl.fold (fun c n acc -> (c, n) :: acc) by_cat [] in
    List.iter
      (fun (c, n) -> Printf.printf "  %-8s %d events\n" c n)
      (List.sort compare cats);
    Printf.printf "wrote %s: %d events (%d evicted), valid JSON\n" out (Obs.Trace.length tr)
      (Obs.Trace.dropped tr)
  in
  let exp_conv =
    let parse = function
      | "incast" -> Ok `Incast
      | "rate" -> Ok `Rate
      | "bandwidth" -> Ok `Bandwidth
      | "anatomy" -> Ok `Anatomy
      | s -> Error (`Msg (Printf.sprintf "unknown experiment %S (incast|rate|bandwidth|anatomy)" s))
    in
    let print fmt e =
      Format.pp_print_string fmt
        (match e with
        | `Incast -> "incast"
        | `Rate -> "rate"
        | `Bandwidth -> "bandwidth"
        | `Anatomy -> "anatomy")
    in
    Arg.conv (parse, print)
  in
  let exp =
    Arg.(value & opt exp_conv `Incast & info [ "exp" ] ~docv:"NAME" ~doc:"Experiment to trace.")
  in
  let out =
    Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let capacity =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "capacity" ] ~docv:"N" ~doc:"Trace ring capacity (events).")
  in
  let degree =
    Arg.(value & opt int 10 & info [ "degree" ] ~docv:"N" ~doc:"Incast degree.")
  in
  let warmup =
    Arg.(value & opt float 5.0 & info [ "warmup-ms" ] ~docv:"MS" ~doc:"Warmup window.")
  in
  let measure =
    Arg.(value & opt float 5.0 & info [ "measure-ms" ] ~docv:"MS" ~doc:"Measured window.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an experiment with event tracing on and write a Chrome/Perfetto trace")
    Term.(const run $ exp $ out $ capacity $ seed_arg $ degree $ warmup $ measure)

(* bench-sim *)
let bench_sim_cmd =
  let run workloads out seed rerun =
    let rows =
      List.map (fun workload -> Experiments.Bench_sim.run_one ~workload ~seed) workloads
    in
    (* --rerun determinism gate (same idiom as shm-bench/cluster-load):
       run every row a second time and require identical end-state
       digests; timings may differ, the simulation must not. *)
    let violations =
      if not rerun then []
      else
        List.filter_map
          (fun (r : Experiments.Bench_sim.row) ->
            let r2 = Experiments.Bench_sim.run_one ~workload:r.workload ~seed in
            if r2.digest <> r.digest then
              Some (Printf.sprintf "%s: rerun digest %s <> %s" r.workload r2.digest r.digest)
            else if r2.events_by_layer <> r.events_by_layer then
              Some (Printf.sprintf "%s: rerun event census differs" r.workload)
            else None)
          rows
    in
    List.iter
      (fun (r : Experiments.Bench_sim.row) ->
        Printf.printf "%-10s %8.3f s  %9d events  %10.0f ev/s  %6.1f words/ev\n"
          r.workload r.wall_s r.events r.events_per_sec r.minor_words_per_event;
        Printf.printf "           %s\n"
          (String.concat "  "
             (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) r.events_by_layer)))
      rows;
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (Experiments.Bench_sim.to_json rows));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" file);
    if violations <> [] then begin
      List.iter (Printf.eprintf "DETERMINISM VIOLATION: %s\n") violations;
      exit 1
    end
    else if rerun then
      Printf.printf "rerun digests and event censuses identical for all %d rows\n"
        (List.length rows)
  in
  let workloads =
    Arg.(
      value
      & opt (list string) Experiments.Bench_sim.workload_names
      & info [ "workloads" ] ~docv:"W,.." ~doc:"Workloads to run (incast|rate|bandwidth|chaos).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the BENCH_sim_events.json document here.")
  in
  let rerun =
    Arg.(
      value & flag
      & info [ "rerun" ]
          ~doc:
            "Run every row twice and fail (exit 1) if any same-seed rerun's end-state \
             digest or event census differs.")
  in
  Cmd.v
    (Cmd.info "bench-sim"
       ~doc:"Simulator throughput: events/s and allocation per event")
    Term.(const run $ workloads $ out $ seed_arg $ rerun)

(* sweep *)
let sweep_cmd =
  let run suite seeds jobs =
    let t0 = Unix.gettimeofday () in
    let failures = ref [] in
    let note name bad det =
      Printf.printf "%-12s %d/%d clean, deterministic=%b\n" name (seeds - bad) seeds det;
      if bad > 0 || not det then failures := name :: !failures
    in
    let run_chaos () =
      let s = Experiments.Chaos.run_suite ~seeds ~jobs () in
      note "chaos"
        (List.length (List.filter (fun r -> r.Experiments.Chaos.violations <> []) s.runs))
        s.deterministic
    in
    let run_kv () =
      let s = Experiments.Exp_kv_chaos.run_suite ~seeds ~jobs () in
      note "kv-chaos"
        (List.length
           (List.filter (fun r -> r.Experiments.Exp_kv_chaos.violations <> []) s.runs))
        s.deterministic
    in
    let run_cluster () =
      let rs = Experiments.Exp_cluster_load.run_all ~rerun_check:true ~jobs () in
      let bad =
        List.length
          (List.filter (fun r -> r.Experiments.Exp_cluster_load.violations <> []) rs)
      in
      Printf.printf "%-12s %d/%d scenarios clean (rerun-checked)\n" "cluster-load"
        (List.length rs - bad) (List.length rs);
      if bad > 0 then failures := "cluster-load" :: !failures
    in
    (match suite with
    | "chaos" -> run_chaos ()
    | "kv-chaos" -> run_kv ()
    | "cluster-load" -> run_cluster ()
    | "all" ->
        run_chaos ();
        run_kv ();
        run_cluster ()
    | s -> failwith (Printf.sprintf "unknown suite %S (chaos|kv-chaos|cluster-load|all)" s));
    Printf.printf "sweep done in %.1f s (jobs=%d)\n" (Unix.gettimeofday () -. t0) jobs;
    if !failures <> [] then exit 1
  in
  let suite =
    Arg.(
      value & opt string "all"
      & info [ "suite" ] ~docv:"NAME" ~doc:"Suite to sweep (chaos|kv-chaos|cluster-load|all).")
  in
  let seeds =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per suite (chaos and kv-chaos).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Fan independent seeded replications of the chaos/kv-chaos/cluster-load \
          suites across OCaml domains; output is identical to a sequential run")
    Term.(const run $ suite $ seeds $ jobs_arg)

(* codec-bench *)
let codec_bench_cmd =
  let run iters measure_ms json out seed =
    let rows = Experiments.Exp_codec_bench.run ~seed ~iters ~measure_ms () in
    if json then
      print_bench_json ~benchmark:"codec" ~unit:"ns/op"
        (List.map Experiments.Exp_codec_bench.row_json rows)
    else Experiments.Exp_codec_bench.pp_table Format.std_formatter rows;
    match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (Experiments.Exp_codec_bench.to_json rows));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" file
  in
  let iters =
    Arg.(
      value & opt int 100_000
      & info [ "iters" ] ~docv:"N" ~doc:"Wall-clock encode/decode iterations per row.")
  in
  let measure =
    Arg.(
      value & opt float 2.0
      & info [ "measure-ms" ] ~docv:"MS" ~doc:"Simulated measurement window per row.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the BENCH_codec.json document here.")
  in
  Cmd.v
    (Cmd.info "codec-bench"
       ~doc:
         "Typed-codec cost: encode/decode ns/op, modeled charge, and simulated Mrps per \
          backend x schema x offload")
    Term.(const run $ iters $ measure $ json_arg $ out $ seed_arg)

(* session-scale *)
let session_scale_cmd =
  let print_row (r : Experiments.Exp_session_scale.result) =
    Printf.printf
      "%6d sessions: %.2f Mrps, p50=%.1f us p99=%.1f us (%d RPCs, %d events, %.2f s)\n"
      r.sessions r.mrps r.lat_p50_us r.lat_p99_us r.completed r.events r.wall_s
  in
  let run sessions sweep measure_ms window seed =
    if sweep then
      List.iter print_row
        (Experiments.Exp_session_scale.sweep ~seed ~window ~measure_ms ())
    else print_row (Experiments.Exp_session_scale.run ~seed ~window ~measure_ms ~sessions ())
  in
  let sessions =
    Arg.(value & opt int 20_000 & info [ "sessions" ] ~docv:"N" ~doc:"Sessions to open.")
  in
  let sweep =
    Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep 100..20,000 sessions instead.")
  in
  let measure =
    Arg.(value & opt float 2.0 & info [ "measure-ms" ] ~docv:"MS" ~doc:"Measured window.")
  in
  let window =
    Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc:"Requests in flight.")
  in
  Cmd.v
    (Cmd.info "session-scale"
       ~doc:"Fig. 7: one Rpc serving up to 20,000 sessions at constant per-session state")
    Term.(const run $ sessions $ sweep $ measure $ window $ seed_arg)

(* rdma-scalability *)
let rdma_cmd =
  let run connections =
    let r = Rdma.Read_rate.run ~connections () in
    Printf.printf "%d connections: %.1f M reads/s (miss ratio %.2f)\n" r.connections r.rate_mops
      r.miss_ratio
  in
  let conns =
    Arg.(value & opt int 5_000 & info [ "connections" ] ~docv:"N" ~doc:"Connections per NIC.")
  in
  Cmd.v
    (Cmd.info "rdma-scalability" ~doc:"Figure 1: RDMA read rate vs connection count")
    Term.(const run $ conns)

let () =
  let info =
    Cmd.info "erpc_sim" ~version:"1.0"
      ~doc:"Run eRPC-reproduction experiments with open parameters"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            latency_cmd;
            rate_cmd;
            bandwidth_cmd;
            incast_cmd;
            anatomy_cmd;
            trace_cmd;
            scalability_cmd;
            raft_cmd;
            masstree_cmd;
            chaos_cmd;
            kv_chaos_cmd;
            bench_sim_cmd;
            sweep_cmd;
            codec_bench_cmd;
            session_scale_cmd;
            rdma_cmd;
            cluster_load_cmd;
            shm_bench_cmd;
          ]))
