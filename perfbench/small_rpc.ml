(* small-rpc: the Fig. 4 / Table 3 baseline. CX4, 11 hosts with one
   dispatch thread each, all-to-all 32 B echo, closed loop of window 60
   sent in batches of 3, timed after a warmup. *)

open Common

let nodes = 11
let window = 60
let batch = 3
let size = 32
let connect_ms = 1.0
let warmup_ms = 0.5
let slice_ns = 100_000
let measure_ns ~quick = if quick then 200_000 else 1_000_000
let trace_capacity = 1 lsl 22

type sender = {
  rpc : Erpc.Rpc.t;
  sessions : Erpc.Session.session array;
  rng : Sim.Rng.t;
  bufs : (Erpc.Msgbuf.t * Erpc.Msgbuf.t) array;
  mutable ready : int list;
}

let run ~seed ~quick ~traced =
  let cpu0 = Speed.cpu_s () in
  let violations = ref [] in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let trace = make_trace ~traced ~capacity:trace_capacity in
  let d =
    Experiments.Harness.deploy ~seed ?trace cluster ~threads_per_host:1
      ~register:(register_echo ~resp_size:size)
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let rpcs = List.init nodes (fun h -> d.rpcs.(h).(0)) in
  let sessions =
    Array.init nodes (fun src ->
        Array.init (nodes - 1) (fun j ->
            let dst = if j < src then j else j + 1 in
            Erpc.Rpc.create_session d.rpcs.(src).(0) ~remote_host:dst ~remote_rpc_id:0 ()))
  in
  Experiments.Harness.run_ms d connect_ms;
  Array.iter
    (Array.iter (fun (s : Erpc.Session.session) ->
         if s.state <> Erpc.Session.Connected then
           violations := "small-rpc: a session did not connect" :: !violations))
    sessions;
  (* Closed-loop senders, sending exactly as [Experiments.Harness]'s
     closed-loop request loop does, with spans around each enqueue and
     continuation. *)
  let recording = ref false in
  let ops = ref 0 and failed = ref 0 and next_op = ref 0 in
  let lat = Vec.create () in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let senders =
    Array.init nodes (fun src ->
        {
          rpc = d.rpcs.(src).(0);
          sessions = sessions.(src);
          rng = Sim.Rng.split rng;
          bufs =
            Array.init window (fun _ ->
                (Erpc.Msgbuf.alloc ~max_size:size, Erpc.Msgbuf.alloc ~max_size:size));
          ready = List.init window Fun.id;
        })
  in
  let rec send_ready dr =
    while List.length dr.ready >= batch do
      let rec take n acc rest =
        if n = 0 then (acc, rest)
        else match rest with [] -> (acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
      in
      let idxs, rest = take batch [] dr.ready in
      dr.ready <- rest;
      List.iter (send_one dr) idxs
    done
  and send_one dr idx =
    let req, resp = dr.bufs.(idx) in
    Erpc.Msgbuf.resize req size;
    let sess = dr.sessions.(Sim.Rng.int dr.rng (Array.length dr.sessions)) in
    let t0 = Sim.Engine.now engine in
    incr next_op;
    let op = !next_op in
    Spans.span sp_enqueue ~op (fun () ->
        Erpc.Rpc.enqueue_request dr.rpc sess ~req_type:Experiments.Harness.echo_req_type ~req
          ~resp ~cont:(fun r ->
            Spans.span sp_continuation ~op (fun () ->
                if !recording then begin
                  match r with
                  | Ok () ->
                      incr ops;
                      Vec.push lat (Sim.Engine.now engine - t0)
                  | Error _ -> incr failed
                end;
                dr.ready <- idx :: dr.ready;
                send_ready dr)))
  in
  Array.iter send_ready senders;
  Experiments.Harness.run_ms d warmup_ms;
  let setup_s = Speed.cpu_s () -. cpu0 in
  (* Timed phase. *)
  let measure = measure_ns ~quick in
  let rtt = rtt_probe rpcs in
  List.iter (fun r -> Sim.Cpu.reset_stats (Erpc.Rpc.cpu r)) rpcs;
  let c0 = counters d in
  let sl = slicer () in
  recording := true;
  run_slices sl engine ~until:(Sim.Engine.now engine + measure) ~slice_ns;
  recording := false;
  let c1 = counters d in
  let util = cpu_util rpcs in
  let sorted = Vec.sorted lat in
  let ops = !ops and failed = !failed in
  let sim_s = float_of_int measure /. 1e9 in
  let sim =
    [
      m "sim_mrps" "Mrps" (float_of_int ops /. float_of_int nodes /. sim_s /. 1e6);
      m "sim_goodput_gbps" "Gbps" (float_of_int (ops * 2 * size * 8) /. float_of_int measure);
    ]
    @ latency_metrics sorted
  in
  let layers =
    sim_layers (delta c1 c0) ~buffer_peak_kb:(buffer_peak_kb d) ~ops
    @ [
        m "erpc.client_cpu_util" "frac" util;
        m "erpc.server_cpu_util" "frac" util;
        m "erpc.echo_p99_us" "us" (float_of_int (pct sorted 99.) /. 1e3);
        mi "sim.latency_samples" "count" (Array.length sorted);
        m "failed_frac" "frac" (ratio failed (ops + failed));
      ]
    @ rtt_metrics rtt @ not_exercised service_names
  in
  let traced_layers, anatomy_violations =
    anatomy_metrics ~traced
      (anatomy ~cluster ~trace ~client_host:(fun _ -> true))
      ~client_rpcs:(Experiments.Harness.total_completed d)
  in
  {
    setup_s;
    timed_s = c1.cpu_s -. c0.cpu_s;
    ops;
    attempted = ops + failed;
    failed;
    sim;
    layers;
    traced_layers;
    host_layers = host_layers (delta c1 c0) ~depth_max:sl.depth_max ~arrivals:0;
    digest = end_digest d (sorted, ops, failed);
    violations = List.rev !violations @ anatomy_violations;
    notes =
      [
        latency_note "32 B echo latency" sorted;
        Printf.sprintf
          "sim_mrps %.4f per dispatch thread (paper Table 3 baseline: 4.96 Mrps)"
          (float_of_int ops /. float_of_int nodes /. sim_s /. 1e6);
      ];
  }
