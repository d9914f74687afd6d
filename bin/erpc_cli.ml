(* The erpc_sim experiments: each is an {!Experiments.Registry} entry plus
   its own parameter term. The flags every entry shares (--seed, --json,
   --out, --rerun) are defined once below, and {!command} runs any entry
   through the registry, so every experiment prints, writes and checks
   its result the same way.

   `erpc_sim paper <section>` regenerates the paper's tables and figures
   with fixed parameters, beside the values the paper reports; the other
   entries expose the same experiments with the knobs open (cluster,
   degree, credits, loss rate, congestion-control algorithm, ...) for
   exploration. *)

open Cmdliner
module R = Experiments.Registry
module J = Obs.Json

type parsed = (seed:int64 -> R.outcome) * (string * J.t) list
type entry = Entry of parsed R.entry * parsed Term.t

(* {2 Shared flags} *)

let seed_arg =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Simulation seed; every run the experiment reports derives from it.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the result envelope (JSON) instead of the report.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the result envelope to $(docv).")

let rerun_arg =
  Arg.(
    value & flag
    & info [ "rerun" ]
        ~doc:
          "Run the experiment twice and fail (exit 1) unless the same seed reproduces the \
           same digest and event census.")

let execute (e : _ R.entry) seed json out rerun p =
  let r = R.run ~wall_clock:Unix.gettimeofday ~rerun e ~seed p in
  let doc = J.to_string (R.envelope r) in
  if json then print_endline doc else print_string r.outcome.report;
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc -> output_string oc doc; output_char oc '\n');
      if not json then Printf.printf "wrote %s\n" file)
    out;
  if rerun && not json then
    Printf.printf "rerun: digest %s, %d events: %s\n" r.digest r.events
      (if List.length r.violations = List.length r.outcome.violations then "identical"
       else "DIFFERENT");
  List.iter (Printf.eprintf "violation: %s\n") r.violations;
  if r.violations <> [] then exit 1

let command (Entry (e, params)) =
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const (execute e) $ seed_arg $ json_arg $ out_arg $ rerun_arg $ params)

(* {2 Parameters}

   Each entry flag is declared once: its term parses the value together
   with the envelope [params] field that records it, keyed by the flag
   name with [-] replaced by [_]. An entry combines its flags with
   [let+ ... and+ ...], so its params are exactly its recorded flags, in
   order. *)

type 'a param = ('a * (string * J.t) list) Term.t

let ( let+ ) (p : _ param) f : _ param = Term.(const (fun (v, ps) -> (f v, ps)) $ p)

let ( and+ ) (a : _ param) (b : _ param) : _ param =
  Term.(const (fun (x, px) (y, py) -> ((x, y), px @ py)) $ a $ b)

(* The flag [name]'s term, recorded under [name] with [-] replaced by [_]. *)
let recorded name to_json arg : _ param =
  let key = String.map (function '-' -> '_' | c -> c) name in
  Term.(const (fun v -> (v, [ (key, to_json v) ])) $ arg)

(* A flag that only shapes the report, not the run, stays out of params. *)
let unrecorded arg : _ param = Term.(const (fun v -> (v, [])) $ arg)

(* [Error msg] refuses the command line with [msg]. *)
let refusing (p : (_, string) result param) : _ param =
  Term.(term_result' ~usage:true (const (fun (r, ps) -> Result.map (fun v -> (v, ps)) r) $ p))

let opt_arg to_json conv name default docv doc =
  recorded name to_json (Arg.value (Arg.opt conv default (Arg.info [ name ] ~docv ~doc)))

let int_arg = opt_arg (fun n -> J.Int n) Arg.int
let float_arg = opt_arg (fun f -> J.Float f) Arg.float
let bool_arg name default doc = opt_arg (fun b -> J.Bool b) Arg.bool name default "BOOL" doc
(* A bare [--name] means true; [--name=false] is how an envelope replays it. *)
let flag_arg name doc =
  recorded name (fun b -> J.Bool b) Arg.(value & opt ~vopt:true bool false & info [ name ] ~doc)

let enum_arg name choices =
  opt_arg (fun v -> J.Str (fst (List.find (fun (_, c) -> c = v) choices))) (Arg.enum choices) name

let names ns = List.map (fun n -> (n, n)) ns

let jobs_arg =
  int_arg "jobs" 1 "N"
    "OCaml domains to fan independent runs across (results are identical to --jobs 1; see \
     Par_sweep)."

let cluster_arg default =
  enum_arg "cluster"
    [ ("cx3", `Cx3); ("cx4", `Cx4); ("cx5", `Cx5); ("cx5-ib100", `Cx5_ib100) ]
    default "NAME" "Cluster profile."

let nodes_arg =
  opt_arg
    (function Some n -> J.Int n | None -> J.Null)
    Arg.(some int) "nodes" None "N" "Override node count."

let build_cluster ?nodes = function
  | `Cx3 -> Transport.Cluster.cx3 ?nodes ()
  | `Cx4 -> Transport.Cluster.cx4 ?nodes ()
  | `Cx5 -> Transport.Cluster.cx5 ?nodes ()
  | `Cx5_ib100 -> Transport.Cluster.cx5_ib100 ()

(* --trace-out FILE records the run's events in a trace of default
   capacity and writes it as Chrome/Perfetto JSON. Tracing only observes:
   rows, digest and census stay the untraced run's. *)
let trace_out_arg =
  unrecorded
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the run's event trace to $(docv) as Chrome/Perfetto JSON.")

let traced file run =
  match file with
  | None -> run None
  | Some file ->
      let tr = Obs.Trace.create () in
      let (o : R.outcome) = run (Some tr) in
      Obs.Trace.write_chrome_file tr file;
      let n, evicted = (Obs.Trace.length tr, Obs.Trace.dropped tr) in
      let line = Printf.sprintf "wrote %s: %d trace events, %d evicted\n" file n evicted in
      { o with report = o.report ^ line }

(* Without [report], the rows are flat and {!R.table} renders them. *)
let outcome ?(violations = []) ?(host = []) ?report rows =
  let report = match report with Some r -> r | None -> R.table rows in
  { R.rows; report; violations; host }

let entry ~name ~doc ~benchmark ~unit term =
  Entry
    ( { R.name; doc; benchmark; unit; params = snd; run = (fun ~seed (run, _) -> run ~seed) },
      term )

(* {2 Rows}

   The fields an entry and a paper section share, so both name the same
   measurement the same way. *)

let latency_fields (r : Experiments.Exp_latency.row) =
  [
    ("cluster", J.Str r.cluster);
    ("rdma_read_us", J.Float r.rdma_read_us);
    ("erpc_us", J.Float r.erpc_us);
    ("erpc_p99_us", J.Float r.erpc_p99_us);
  ]

let bandwidth_fields ~loss (p : Experiments.Exp_bandwidth.point) =
  [
    ("req_size", J.Int p.req_size);
    ("loss", J.Float loss);
    ("goodput_gbps", J.Float p.goodput_gbps);
    ("retransmits", J.Int p.retransmits);
  ]

let incast_fields (r : Experiments.Exp_incast.row) =
  [
    ("degree", J.Int r.degree);
    ("cc", J.Bool r.cc);
    ("total_gbps", J.Float r.total_gbps);
    ("rtt_p50_us", J.Float r.rtt_p50_us);
    ("rtt_p99_us", J.Float r.rtt_p99_us);
    ("switch_buffer_peak_bytes", J.Int r.switch_buffer_peak_bytes);
    ("retransmits", J.Int r.retransmits);
  ]

let scalability_fields (r : Experiments.Exp_scalability.row) =
  [
    ("threads_per_node", J.Int r.threads_per_node);
    ("per_node_mrps", J.Float r.per_node_mrps);
    ("lat_p50_us", J.Float r.lat_p50_us);
    ("lat_p99_us", J.Float r.lat_p99_us);
    ("lat_p999_us", J.Float r.lat_p999_us);
    ("lat_p9999_us", J.Float r.lat_p9999_us);
    ("retransmits_per_node_per_sec", J.Float r.retransmits_per_node_per_sec);
  ]

(* Figure 1's read-target stream has always used seed 7; offsetting keeps
   it at the default seed (42). *)
let read_rate_fields ~seed connections =
  let r = Rdma.Read_rate.run ~seed:(Int64.sub seed 35L) ~connections () in
  [
    ("connections", J.Int r.connections);
    ("rate_mops", J.Float r.rate_mops);
    ("miss_ratio", J.Float r.miss_ratio);
  ]

(* {2 Entries} *)

let latency =
  entry ~name:"latency" ~doc:"Table 2: median 32 B RPC vs RDMA-read latency"
    ~benchmark:"latency" ~unit:"us"
    (let+ c = cluster_arg `Cx5
     and+ nodes = nodes_arg
     and+ samples = int_arg "samples" 2_000 "N" "RPCs to measure." in
     fun ~seed ->
       outcome
         [
           J.Obj
             (latency_fields
                (Experiments.Exp_latency.measure ~seed ~samples (build_cluster ?nodes c)));
         ])

let rate =
  entry ~name:"rate" ~doc:"Figure 4: single-core small-RPC rate" ~benchmark:"small_rate"
    ~unit:"Mrps"
    (refusing
       (let+ c = cluster_arg `Cx4
        and+ nodes = nodes_arg
        and+ batch = int_arg "batch" 3 "B" "Requests per batch."
        and+ window = int_arg "window" 60 "N" "Requests in flight per thread."
        and+ fasst = flag_arg "fasst" "Run the FaSST-like specialized baseline."
        and+ measure_ms = float_arg "measure-ms" 4.0 "MS" "Measured window."
        and+ trace_out = trace_out_arg in
        if fasst && trace_out <> None then Error "--trace-out traces the eRPC run, not --fasst"
        else
          Ok
            (fun ~seed ->
              let c = build_cluster ?nodes c in
              traced trace_out (fun trace ->
                  let r =
                    if fasst then
                      Experiments.Exp_small_rate.run_fasst ~seed ~window ~cluster:c ~batch
                        ~measure_ms ()
                    else
                      Experiments.Exp_small_rate.run ~seed ?trace ~cluster:c ~window ~batch
                        ~measure_ms ()
                  in
                  outcome
                    [
                      J.Obj
                        [
                          ("cluster", J.Str c.name);
                          ("batch", J.Int batch);
                          ("per_thread_mrps", J.Float r.per_thread_mrps);
                          ("total_rpcs", J.Int r.total_rpcs);
                          ("retransmits", J.Int r.retransmits);
                        ];
                    ]))))

let bandwidth =
  entry ~name:"bandwidth" ~doc:"Figure 6 / Table 4: large-RPC goodput over 100 Gbps"
    ~benchmark:"bandwidth" ~unit:"Gbps"
    (let+ req_size = int_arg "size" (8 * 1024 * 1024) "BYTES" "Request size."
     and+ credits = int_arg "credits" 32 "C" "Session credits."
     and+ loss = float_arg "loss" 0.0 "P" "Injected packet-loss rate."
     and+ requests = int_arg "requests" 8 "N" "Requests to measure."
     and+ trace_out = trace_out_arg in
     fun ~seed ->
       traced trace_out (fun trace ->
           outcome
             [
               J.Obj
                 (bandwidth_fields ~loss
                    (Experiments.Exp_bandwidth.erpc_goodput ~seed ?trace ~credits ~requests ~loss
                       ~req_size ()));
             ]))

let incast =
  entry ~name:"incast" ~doc:"Table 5: incast congestion control" ~benchmark:"incast"
    ~unit:"Gbps"
    (let+ degree = int_arg "degree" 20 "N" "Incast degree."
     and+ credits = int_arg "credits" 32 "C" "Session credits."
     and+ cc = bool_arg "cc" true "Enable congestion control."
     and+ warmup_ms = float_arg "warmup-ms" 20.0 "MS" "Warmup window."
     and+ measure_ms = float_arg "measure-ms" 30.0 "MS" "Measured window."
     and+ trace_out = trace_out_arg in
     fun ~seed ->
       traced trace_out (fun trace ->
           outcome
             [
               J.Obj
                 (incast_fields
                    (Experiments.Exp_incast.run ~seed ?trace ~credits ~degree ~cc ~warmup_ms
                       ~measure_ms ()));
             ]))

let scalability =
  entry ~name:"scalability" ~doc:"Figure 5: 100-node scalability" ~benchmark:"scalability"
    ~unit:"Mrps"
    (let+ nodes = nodes_arg and+ threads = int_arg "threads" 1 "T" "Threads per node." in
     fun ~seed ->
       let r = Experiments.Exp_scalability.run ~seed ?nodes ~threads () in
       outcome [ J.Obj (scalability_fields r) ])

let raft =
  entry ~name:"raft" ~doc:"Table 6: 3-way replicated PUT latency (Raft over eRPC)"
    ~benchmark:"raft_kv" ~unit:"us"
    (let+ samples = int_arg "samples" 3_000 "N" "PUTs." in
     fun ~seed ->
       let r = Experiments.Exp_raft.run ~seed ~samples () in
       outcome
         [
           J.Obj
             [
               ("row", J.Str "table6");
               ("client_p50_us", J.Float r.client_p50_us);
               ("client_p99_us", J.Float r.client_p99_us);
               ("leader_p50_us", J.Float r.leader_p50_us);
               ("leader_p99_us", J.Float r.leader_p99_us);
               ("puts", J.Int r.puts);
               ("errors", J.Int r.errors);
             ];
           J.Obj
             [
               ("row", J.Str "sharded_baseline");
               ( "detail",
                 Experiments.Kv_runner.to_json
                   (Experiments.Kv_runner.run ~seed (Workload.Traffic_spec.kv_chaos ~seed None))
               );
             ];
         ]
         ~report:
           (Printf.sprintf
              "replicated PUT: client p50=%.1f p99=%.1f us; leader commit p50=%.1f p99=%.1f \
               us (%d puts, %d errors)\n"
              r.client_p50_us r.client_p99_us r.leader_p50_us r.leader_p99_us r.puts r.errors))

let masstree =
  entry ~name:"masstree" ~doc:"§7.2: Masstree over eRPC" ~benchmark:"masstree" ~unit:"us"
    (let+ workers = bool_arg "workers" true "Run scans in workers." in
     fun ~seed ->
       let r = Experiments.Exp_masstree.run ~seed ~workers () in
       outcome
         [
           J.Obj
             [
               ("gets_per_sec_m", J.Float r.gets_per_sec_m);
               ("get_p50_us", J.Float r.get_p50_us);
               ("get_p99_us", J.Float r.get_p99_us);
               ("scan_p99_us", J.Float r.scan_p99_us);
             ];
         ])

let verbose_arg doc = unrecorded Arg.(value & flag & info [ "trace" ] ~doc)

(* Every scenario entry sweeps its (seed, scenario) runs through the one
   runner, report and row: each run's report (plus its fault trace with
   --trace), then the clean count; each run's violations, tagged. *)
let kv_suite ~verbose ~jobs runs =
  let module K = Experiments.Kv_runner in
  let runs = K.sweep ~jobs runs in
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : K.result) ->
      Buffer.add_string b (Format.asprintf "%a@." K.pp r);
      if verbose then Buffer.add_string b r.trace)
    runs;
  let clean = List.filter (fun (r : K.result) -> r.violations = []) runs in
  Printf.bprintf b "%d/%d schedules clean\n" (List.length clean) (List.length runs);
  let tagged (r : K.result) = List.map (Printf.sprintf "seed %Ld %s: %s" r.seed r.scenario) in
  outcome ~report:(Buffer.contents b) (List.map K.to_json runs)
    ~violations:(List.concat_map (fun (r : K.result) -> tagged r r.violations) runs)

let chaos =
  entry ~name:"chaos"
    ~doc:
      "Fault-injection chaos suite: echo traffic under seeded fault schedules, with the wire \
       protocol's invariants audited at quiescence"
    ~benchmark:"chaos" ~unit:"runs"
    (let+ seeds = int_arg "seeds" 20 "N" "Seeded schedules to run."
     and+ verbose = verbose_arg "Print each run's fault trace."
     and+ jobs = jobs_arg in
     fun ~seed ->
       kv_suite ~verbose ~jobs (Workload.Traffic_spec.echo_chaos_suite ~seed ~seeds))

let kv_chaos =
  entry ~name:"kv-chaos"
    ~doc:
      "Replicated-KV failover chaos: availability timeline, tail latency and exactly-once \
       invariants under leader crashes, partitions and rolling restarts"
    ~benchmark:"kv_chaos" ~unit:"us"
    (let+ seeds = int_arg "seeds" 20 "N" "Seeded fault schedules to run."
     and+ verbose = verbose_arg "Print each run's fault trace."
     and+ jobs = jobs_arg in
     fun ~seed -> kv_suite ~verbose ~jobs (Workload.Traffic_spec.kv_chaos_suite ~seed ~seeds))

let cluster_load =
  let scenarios = List.map fst Workload.Traffic_spec.builtin in
  entry ~name:"cluster-load"
    ~doc:
      "Multi-tenant open-loop traffic (Poisson/bursty/hot-key-shift tenants over KV + echo) \
       with per-tenant P50/P99/P99.9 SLOs and P99 tail attribution"
    ~benchmark:"cluster_load" ~unit:"us"
    (let+ scenario =
       enum_arg "scenario"
         (names ("all" :: scenarios))
         "all" "NAME"
         ("Scenario: " ^ String.concat "|" ("all" :: scenarios) ^ ".")
     and+ scale = float_arg "scale" 1.0 "F" "Population scale factor on tenant source counts."
     and+ horizon_ms = float_arg "horizon-ms" 100.0 "MS" "Measured open-loop window per scenario."
     and+ jobs = jobs_arg in
     fun ~seed ->
       kv_suite ~verbose:false ~jobs
         (List.map
            (fun n -> (seed, Option.get (Workload.Traffic_spec.of_name ~scale ~horizon_ms n)))
            (if scenario = "all" then scenarios else [ scenario ])))

let shm_bench =
  let module A = Experiments.Exp_anatomy in
  entry ~name:"shm-bench"
    ~doc:
      "Intra-host serialize-vs-share benchmark: the anatomy's probe swept over payloads on the \
       shared-memory rings, with crossover, anatomy-zero and determinism checks"
    ~benchmark:"shm" ~unit:"ns"
    (let+ samples = int_arg "samples" 24 "N" "Sequential RPCs per (payload, mode) cell." in
     fun ~seed ->
       let r = A.shm_sweep ~seed ~samples in
       outcome ~violations:r.violations
         ~report:(Format.asprintf "%a" A.pp_shm_sweep r)
         (List.map A.shm_row_json r.rows))

let anatomy =
  let module A = Experiments.Exp_anatomy in
  let transports = [ ("raw_eth", `Raw_eth); ("rdma_rc", `Rdma_rc); ("shm", `Shm) ] in
  entry ~name:"anatomy"
    ~doc:"Latency anatomy: decompose quiet-network RPC latency into components"
    ~benchmark:"anatomy" ~unit:"ns"
    (refusing
       (let+ samples = int_arg "samples" 32 "N" "Sequential RPCs to sample."
        and+ req_size = int_arg "size" 32 "BYTES" "Request size."
        and+ typed = flag_arg "typed" "Issue typed (schema-carrying) echoes so ser/deser appear."
        and+ backend =
          enum_arg "backend"
            [ ("compact", Codec.Compact); ("flat", Codec.Flat) ]
            Codec.Compact "B" "Codec backend for --typed (compact|flat)."
        and+ transport =
          enum_arg "transport"
            (names [ "raw_eth"; "rdma_rc"; "shm"; "all" ])
            "raw_eth" "T"
            "Datapath: raw_eth|rdma_rc|shm, or all to run the three-transport anatomy in one \
             command."
        and+ trace_out = trace_out_arg in
        if transport = "all" && trace_out <> None then
          Error "--trace-out traces one transport; pick raw_eth, rdma_rc or shm, not all"
        else
          Ok
            (fun ~seed ->
              traced trace_out (fun trace ->
                  let runs =
                    List.map
                      (fun (name, transport) ->
                        (name, A.run ~seed ?trace ~samples ~req_size ~typed ~backend ~transport ()))
                      (if transport = "all" then transports
                       else [ (transport, List.assoc transport transports) ])
                  in
                  outcome
                    ~violations:
                      (List.concat_map
                         (fun (name, (r : A.result)) -> List.map (( ^ ) (name ^ ": ")) r.violations)
                         runs)
                    ~report:
                      (String.concat ""
                         (List.map
                            (fun (name, (r : A.result)) ->
                              Format.asprintf "transport %s:@.%a" name Obs.Anatomy.pp_table
                                r.breakdowns)
                            runs))
                    (List.concat_map
                       (fun (name, (r : A.result)) ->
                         List.map
                           (fun (b : Obs.Anatomy.breakdown) ->
                             J.Obj
                               (("transport", J.Str name)
                               :: ("req", J.Int b.req)
                               :: ("total_ns", J.Int b.total_ns)
                               :: List.map
                                    (fun (label, v) -> (label, J.Int v))
                                    (Obs.Anatomy.components b)))
                           r.breakdowns)
                       runs)))))

let codec_bench =
  let module C = Experiments.Exp_codec_bench in
  entry ~name:"codec-bench"
    ~doc:
      "Typed-codec cost: encode/decode ns/op, modeled charge, and simulated Mrps per backend x \
       schema"
    ~benchmark:"codec" ~unit:"ns/op"
    (let+ iters = int_arg "iters" 100_000 "N" "Wall-clock encode/decode iterations per row."
     and+ measure_ms = float_arg "measure-ms" 2.0 "MS" "Simulated measurement window per row." in
     fun ~seed ->
       let rows = C.run ~seed ~iters ~measure_ms () in
       outcome
         ~host:[ ("ns_per_op", J.Arr (List.map C.host_json rows)) ]
         ~report:(Format.asprintf "%a" C.pp_table rows)
         (List.map C.row_json rows))

let session_scale =
  let module S = Experiments.Exp_session_scale in
  entry ~name:"session-scale"
    ~doc:"Fig. 7: one Rpc serving up to 20,000 sessions at constant per-session state"
    ~benchmark:"session_scale" ~unit:"Mrps"
    (let+ sessions = int_arg "sessions" 20_000 "N" "Sessions to open."
     and+ sweep = flag_arg "sweep" "Sweep 100..20,000 sessions instead."
     and+ measure_ms = float_arg "measure-ms" 2.0 "MS" "Measured window."
     and+ window = int_arg "window" 64 "N" "Requests in flight." in
     fun ~seed ->
       let rs =
         if sweep then S.sweep ~seed ~window ~measure_ms ()
         else [ S.run ~seed ~window ~measure_ms ~sessions () ]
       in
       outcome
         ~host:[ ("cpu_s", J.Arr (List.map (fun (r : S.result) -> J.Float r.cpu_s) rs)) ]
         (List.map
            (fun (r : S.result) ->
              J.Obj
                [
                  ("sessions", J.Int r.sessions);
                  ("completed", J.Int r.completed);
                  ("mrps", J.Float r.mrps);
                  ("lat_p50_us", J.Float r.lat_p50_us);
                  ("lat_p99_us", J.Float r.lat_p99_us);
                  ("events", J.Int r.events);
                ])
            rs))

let rdma_scalability =
  entry ~name:"rdma-scalability" ~doc:"Figure 1: RDMA read rate vs connection count"
    ~benchmark:"rdma_read_rate" ~unit:"Mops"
    (let+ connections = int_arg "connections" 5_000 "N" "Connections per NIC." in
     fun ~seed -> outcome [ J.Obj (read_rate_fields ~seed connections) ])

(* {2 paper}

   The paper's evaluation (§6-§7) at the paper's parameters: each section
   returns one row per line of its table, the measured values beside the
   ones the paper reports, and every row carries its table's title (see
   {!R.table}). The substrate is a calibrated simulator, not the authors'
   testbed, so absolute numbers need not coincide; the shape (who wins, by
   what factor, where behaviour changes) is the reproduction target. *)

module Paper = struct
  module X = Experiments

  let titled title rows = List.map (fun fields -> J.Obj (("table", J.Str title) :: fields)) rows
  let floats names values = List.map2 (fun k v -> (k, J.Float v)) names values
  let reported names = floats (List.map (( ^ ) "paper_") names)
  let mb n = n * 1024 * 1024

  let fig1 ~seed =
    titled
      "Figure 1: RDMA read rate vs connections per NIC (paper: flat to a few hundred, then \
       ~50% loss by 5000)"
      (List.map (read_rate_fields ~seed) [ 1; 50; 100; 200; 450; 1000; 2000; 3000; 4000; 5000 ])

  let table2 ~seed =
    titled "Table 2: median latency of 32 B RPCs vs RDMA reads (same ToR)"
      (List.map
         (fun (cluster, paper) ->
           latency_fields (X.Exp_latency.measure ~seed ~samples:1_000 cluster)
           @ reported [ "rdma_read_us"; "erpc_us" ] paper)
         [
           (Transport.Cluster.cx3 ~nodes:2 (), [ 1.7; 2.1 ]);
           (Transport.Cluster.cx4 ~nodes:10 (), [ 2.9; 3.7 ]);
           (Transport.Cluster.cx5 ~nodes:2 (), [ 2.0; 2.3 ]);
         ])

  let fig4 ~seed =
    let module S = X.Exp_small_rate in
    let columns = [ "fasst_cx3_mrps"; "erpc_cx3_mrps"; "erpc_cx4_mrps" ] in
    titled "Figure 4: single-core small-RPC rate (Mrps), B requests/batch"
      (List.map
         (fun (batch, paper) ->
           let fasst =
             S.run_fasst ~seed ~window:60 ~cluster:(Transport.Cluster.cx3 ()) ~batch ()
           in
           let erpc_cx3 = S.run ~seed ~cluster:(Transport.Cluster.cx3 ()) ~batch () in
           let erpc_cx4 = S.run ~seed ~cluster:(Transport.Cluster.cx4 ~nodes:11 ()) ~batch () in
           let mrps = List.map (fun (r : S.result) -> r.per_thread_mrps) in
           (("batch", J.Int batch) :: floats columns (mrps [ fasst; erpc_cx3; erpc_cx4 ]))
           @ reported columns paper)
         [ (3, [ 3.9; 3.7; 5.0 ]); (5, [ 4.4; 3.8; 4.9 ]); (11, [ 4.8; 3.9; 4.8 ]) ])

  let table3 ~seed =
    let rate (_, (r : X.Exp_small_rate.result)) = r.per_thread_mrps in
    let action ((label, _) as r) = [ ("action", J.Str label); ("mrps", J.Float (rate r)) ] in
    let loss ~from r = J.Float ((rate from -. rate r) /. rate from *. 100.) in
    (* The "Typed codec" and "Transport" rows are not part of the paper's
       cumulative table: each re-runs the baseline with a different
       datapath (typed serialization, RDMA RC, mixed local/remote shm), so
       their loss is against the baseline. *)
    let cumulative, extra =
      List.partition
        (fun (label, _) ->
          not
            (String.starts_with ~prefix:"Typed codec" label
            || String.starts_with ~prefix:"Transport" label))
        (X.Exp_small_rate.factor_analysis ~seed ())
    in
    (* §6.2 text: disabling congestion control entirely gives 5.44 Mrps (9%
       total CC overhead). *)
    let no_cc =
      let cluster = Transport.Cluster.cx4 ~nodes:11 () in
      let base = Erpc.Config.of_cluster cluster in
      let config = { base with opts = { base.opts with congestion_control = false } } in
      X.Exp_small_rate.run ~seed ~config ~cluster ~batch:3 ()
    in
    let paper = [ 4.96; 4.84; 4.52; 4.30; 4.06; 3.55; 3.05 ] in
    let paper_loss = [ 0.; 2.4; 6.6; 4.8; 5.6; 12.6; 14.0 ] in
    titled "Table 3: factor analysis of common-case optimizations (CX4, B=3)"
      (List.mapi
         (fun i (r, (paper, paper_loss)) ->
           let first = i = 0 in
           let prev () = List.nth cumulative (i - 1) in
           action r
           @ [
               ("loss_pct", if first then J.Null else loss ~from:(prev ()) r);
               ("paper_mrps", J.Float paper);
               ("paper_loss_pct", if first then J.Null else J.Float paper_loss);
             ])
         (List.combine cumulative (List.combine paper paper_loss))
      @ List.map
          (fun r -> action r @ [ ("loss_vs_baseline_pct", loss ~from:(List.hd cumulative) r) ])
          extra
      @ [
          action ("Disable congestion control entirely", no_cc)
          @ reported [ "mrps"; "cc_overhead_pct" ] [ 5.44; 9. ];
        ])

  let fig5 ~threads ~seed =
    titled
      "Figure 5 / §6.3: scalability on 100 nodes (paper: p50 12.7 us at T=1; p99.99 < 700 us \
       at T=10; 12.3 Mrps/node)"
      (List.map
         (fun threads -> scalability_fields (X.Exp_scalability.run ~seed ~threads ()))
         threads)

  let fig6 ~seed =
    titled
      "Figure 6: large-RPC goodput over 100 Gbps, one core (paper: eRPC peaks at 75 Gbps; \
       >= 70% of RDMA write for >= 32 kB)"
      (List.map
         (fun req_size ->
           let e = (X.Exp_bandwidth.erpc_goodput ~seed ~req_size ()).goodput_gbps in
           let r = (X.Exp_bandwidth.rdma_write_goodput ~seed ~req_size ()).goodput_gbps in
           ("req_size", J.Int req_size)
           :: floats [ "erpc_gbps"; "rdma_write_gbps"; "ratio" ] [ e; r; e /. r ])
         [ 512; 2048; 8192; 32768; 131072; 524288; 2097152; 8388608 ])

  let table4 ~seed =
    titled "Table 4: 8 MB request throughput under injected packet loss"
      (List.map2
         (fun loss paper ->
           bandwidth_fields ~loss
             (X.Exp_bandwidth.erpc_goodput ~seed ~requests:40 ~loss ~req_size:(mb 8) ())
           @ reported [ "goodput_gbps" ] [ paper ])
         [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3 ]
         [ 73.; 71.; 57.; 18.; 2.5 ])

  let table5 ~seed =
    let rows =
      List.map
        (fun (degree, cc, paper) ->
          incast_fields (X.Exp_incast.run ~seed ~degree ~cc ~measure_ms:25.0 ())
          @ reported [ "total_gbps"; "rtt_p50_us"; "rtt_p99_us" ] paper)
        [
          (20, true, [ 21.8; 39.; 67. ]);
          (20, false, [ 23.1; 202.; 204. ]);
          (50, true, [ 18.4; 34.; 174. ]);
          (50, false, [ 23.0; 524.; 524. ]);
          (100, true, [ 22.8; 349.; 969. ]);
          (100, false, [ 23.0; 1056.; 1060. ]);
        ]
    in
    let bg = X.Exp_incast.with_background ~seed ~degree:100 ~measure_ms:25.0 () in
    titled "Table 5: incast congestion control (CX4)" rows
    @ titled "§6.5: background 64 kB RPCs during 100-way incast"
        [
          floats
            [ "bg_p50_us"; "bg_p99_us"; "paper_bg_p99_us" ]
            [ bg.bg_p50_us; bg.bg_p99_us; 274. ];
        ]

  let table6 ~seed =
    let r = X.Exp_raft.run ~seed ~samples:2_000 () in
    let us v = J.Float v and none = J.Null in
    titled "Table 6: replicated PUT latency (3-way replication)"
      (List.map
         (fun (system, values) ->
           ("system", J.Str system)
           :: List.combine [ "p50_us"; "p99_us"; "paper_p50_us"; "paper_p99_us" ] values)
         [
           ("NetChain (client, P4 switches)", [ none; none; us 9.7; none ]);
           ( "Raft over eRPC (client)",
             [ us r.client_p50_us; us r.client_p99_us; us 5.5; us 6.3 ] );
           ("ZabFPGA (leader commit)", [ none; none; us 3.0; us 3.0 ]);
           ( "Raft over eRPC (leader commit)",
             [ us r.leader_p50_us; us r.leader_p99_us; us 3.1; us 3.4 ] );
         ])

  let masstree ~seed =
    let low_load = X.Exp_masstree.low_load_median_us ~seed () in
    let r = X.Exp_masstree.run ~seed () in
    let dispatch_only = X.Exp_masstree.run ~seed ~workers:false () in
    titled "§7.2: Masstree over eRPC (CX3, 14 dispatch + 2 worker threads)"
      (List.map
         (fun (metric, v, paper) ->
           ("metric", J.Str metric) :: floats [ "measured"; "paper" ] [ v; paper ])
         [
           ("GET rate (M/s)", r.gets_per_sec_m, 14.3);
           ("GET p99 with workers (us)", r.get_p99_us, 12.);
           ("GET p99 dispatch only (us)", dispatch_only.get_p99_us, 26.);
           ("GET median at low load (us)", low_load, 2.7);
         ])

  (* Ablations of DESIGN.md's key design decisions. *)
  let ablations ~seed =
    let module H = X.Harness in
    let goodput = X.Exp_bandwidth.erpc_goodput ~seed in
    (* A multi-packet REQUEST streams under client control with no extra
       round trips; a multi-packet RESPONSE needs one RFR per further
       packet after response packet 0. The latency gap is the cost of
       keeping the server passive: about one RTT, so it shrinks with
       message size. The paper's <20% at 4+ packets refers to its 4 kB
       InfiniBand MTU, i.e. 16+ kB messages: see the 32-packet row. *)
    let latency ~req_size ~resp_size =
      let d =
        H.deploy ~seed (Transport.Cluster.cx5 ~nodes:2 ()) ~threads_per_host:1
          ~register:(H.register_echo ~resp_size)
      in
      let client = d.rpcs.(0).(0) in
      let sess = H.connect d client ~remote_host:1 ~remote_rpc_id:0 in
      (* 200 back-to-back requests; the last one's latency is reported. *)
      let driver =
        H.make_driver
          ~payload:(H.Echo { req_size; resp_size = max 32 resp_size })
          ~count:200 ~rpc:client ~sessions:[| sess |] ~window:1 ()
      in
      H.start_driver driver;
      H.run_ms d 50.0;
      float_of_int (H.driver_last_latency driver) /. 1e3
    in
    let rfr =
      List.map
        (fun pkts ->
          let req = latency ~req_size:(pkts * 1024) ~resp_size:32 in
          let resp = latency ~req_size:32 ~resp_size:(pkts * 1024) in
          ("packets", J.Int pkts)
          :: floats
               [ "request_heavy_us"; "response_heavy_us"; "rfr_penalty_pct" ]
               [ req; resp; (resp -. req) /. req *. 100. ])
        [ 2; 4; 8; 32; 64 ]
    in
    (* Too few credits throttle a single flow below line rate; more
       credits than BDP/MTU only add switch queueing under incast. *)
    let credits =
      List.map
        (fun credits ->
          let bw = goodput ~credits ~requests:4 ~req_size:(mb 4) () in
          let incast =
            X.Exp_incast.run ~seed ~credits ~degree:20 ~cc:false ~warmup_ms:10.0
              ~measure_ms:10.0 ()
          in
          ("credits", J.Int credits)
          :: floats
               [ "one_flow_gbps"; "incast_20_rtt_p50_us" ]
               [ bw.goodput_gbps; incast.rtt_p50_us ])
        [ 2; 8; 32; 64 ]
    in
    let ib100 ?(opts = Fun.id) ?(rto_ms = 5.0) () =
      let base = Erpc.Config.of_cluster ~credits:32 (Transport.Cluster.cx5_ib100 ()) in
      { base with opts = opts base.opts; rto_ns = int_of_float (rto_ms *. 1e6) }
    in
    (* The 5 ms RTO is conservative because dynamic-buffer switches can add
       milliseconds of queueing; shorter RTOs recover faster under loss
       but risk spurious retransmissions under queueing. *)
    let rto =
      List.map
        (fun rto_ms ->
          let config = ib100 ~rto_ms () in
          let p = goodput ~config ~requests:20 ~loss:1e-4 ~req_size:(mb 8) () in
          floats [ "rto_ms"; "goodput_gbps" ] [ rto_ms; p.goodput_gbps ])
        [ 1.0; 5.0; 20.0 ]
    in
    (* One CR per [cr_stride] request packets: fewer control packets on
       the wire and less per-packet work at the CPU-bound server. *)
    let crs =
      List.map
        (fun cumulative_crs ->
          let config = ib100 ~opts:(fun o -> { o with cumulative_crs }) () in
          let p = goodput ~config ~requests:5 ~req_size:(mb 8) () in
          [
            ("mode", J.Str (if cumulative_crs then "cumulative" else "per-packet"));
            ("goodput_gbps", J.Float p.goodput_gbps);
            ("server_tx_pkts", J.Int p.server_tx_pkts);
          ])
        [ false; true ]
    in
    titled "Ablation: client-driven protocol (RFR latency penalty, §5.1)" rfr
    @ titled "Ablation: session credits = BDP/MTU (§4.3.1); incast is 20-way, cc off" credits
    @ titled "Ablation: go-back-N retransmission timeout (§5.2.3), 8 MB requests at 1e-4 loss"
        rto
    @ titled "Ablation: cumulative credit returns (§6.4 future work), 8 MB requests" crs

  let sections =
    [
      ("fig1", fig1);
      ("table2", table2);
      ("fig4", fig4);
      ("table3", table3);
      ("fig5", fig5 ~threads:[ 1; 2; 4 ]);
      ("fig5full", fig5 ~threads:[ 1; 2; 4; 6; 8; 10 ]);
      ("fig6", fig6);
      ("table4", table4);
      ("table5", table5);
      ("table6", table6);
      ("masstree", masstree);
      ("ablations", ablations);
    ]

  (* Every section but fig5full, which extends fig5 to T = 10. *)
  let sections =
    let all ~seed =
      List.concat_map (fun (name, f) -> if name = "fig5full" then [] else f ~seed) sections
    in
    sections @ [ ("all", all) ]
end

let paper =
  let sections = List.map fst Paper.sections in
  entry ~name:"paper"
    ~doc:"The paper's tables and figures (§6-§7), measured beside the values it reports"
    ~benchmark:"paper" ~unit:"mixed"
    (let+ section =
       recorded "section"
         (fun s -> J.Str s)
         Arg.(
           required
           & pos 0 (some (enum (names sections))) None
           & info [] ~docv:"SECTION" ~doc:("Section: " ^ String.concat "|" sections ^ "."))
     in
     fun ~seed -> outcome ((List.assoc section Paper.sections) ~seed))

let entries =
  [
    latency;
    rate;
    bandwidth;
    incast;
    anatomy;
    scalability;
    raft;
    masstree;
    chaos;
    kv_chaos;
    codec_bench;
    session_scale;
    rdma_scalability;
    cluster_load;
    shm_bench;
    paper;
  ]

let main () =
  let info =
    Cmd.info "erpc_sim" ~version:"1.0"
      ~doc:"Run eRPC-reproduction experiments with open parameters"
  in
  exit (Cmd.eval (Cmd.group info (List.map command entries)))
