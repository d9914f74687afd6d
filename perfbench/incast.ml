(* incast: 20 senders fire 16 kB requests at one victim in synchronized
   bursts: every sender is an on-off Poisson source, on for 125 us and off
   for 125 us in phase with the others, offering 1.2x the victim's 25 Gbps
   link while on. Each burst queues at the victim's ToR downlink; Timely
   congestion control is on and a small uniform loss rate is injected.
   Beside them, seven other hosts send open-loop Poisson streams of 32 B
   probe RPCs into the same victim. Latency is measured on probes (from
   their due time), goodput on the bulk requests.

   One run is [episodes] independent episodes (fresh deployment, seed
   drawn from the workload seed), pooled: the probe tail depends on the
   largest bursts, and pooling episodes averages over many more of them
   than one traced simulation could hold in memory. *)

open Common

let episodes = 8
let degree = 20
let probe_hosts = List.init 7 (fun i -> degree + 1 + i)
let nodes = degree + 8
let victim = 0
let bulk_size = 16 * 1024
let burst_load = 1.2
let burst_ns = 125_000
let gap_ns = 125_000
let probe_size = 32
let bulk_req_type = 1
let probe_req_type = 2
let probe_rate_rps = 50_000.
let bufs_per_source = 256
let loss_prob = 1e-4
let slice_ns = 250_000
let warmup_ns ~quick = if quick then 1_000_000 else 3_000_000
let measure_ns ~quick = if quick then 3_000_000 else 30_000_000
let drain_cap_ns = 30_000_000
let trace_capacity ~quick = if quick then 1 lsl 20 else 1 lsl 22

(* What one episode contributes to the pooled run. *)
type episode = {
  e_setup_s : float;
  e_dc : counters;
  e_depth_max : int;
  e_ops : int;
  e_bulk_ops : int;
  e_attempted : int;  (** arrivals due in the window *)
  e_failed : int;
  e_probes : int array;  (** probe latencies, ns *)
  e_rtts : int array;  (** bulk-client packet RTTs, ns *)
  e_util_client : float;
  e_util_server : float;
  e_buffer_peak_kb : float;
  e_client_rpcs : int;  (** client RPCs completed over the whole episode *)
  e_anatomy : anatomy;
  e_digest : string;
  e_violations : string list;
}

let episode ~seed ~quick ~traced =
  let cpu0 = Speed.cpu_s () in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let config = Erpc.Config.of_cluster ~credits:32 cluster in
  let trace = make_trace ~traced ~capacity:(trace_capacity ~quick) in
  let d =
    Experiments.Harness.deploy ~seed ~config ?trace cluster ~threads_per_host:1
      ~register:(fun nx ->
        register_echo ~req_type:bulk_req_type ~resp_size:32 nx;
        register_echo ~req_type:probe_req_type ~resp_size:probe_size nx)
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let now () = Sim.Engine.now engine in
  let rpc h = d.rpcs.(h).(0) in
  let bulk_clients = List.init degree (fun i -> i + 1) in
  let sessions =
    List.filter_map
      (fun h ->
        match Experiments.Harness.connect d (rpc h) ~remote_host:victim ~remote_rpc_id:0 with
        | s -> Some (h, s)
        | exception Failure e ->
            violate "incast: session %d->%d: %s" h victim e;
            None)
      (bulk_clients @ probe_hosts)
  in
  Netsim.Network.set_loss_prob (Erpc.Fabric.net d.fabric) loss_prob;
  let t0 = now () in
  let measure_from = t0 + warmup_ns ~quick in
  let measure_to = measure_from + measure_ns ~quick in
  let next_op = ref 0 and attempted = ref 0 and failed = ref 0 in
  let outstanding = ref 0 in
  let bulk_ops = ref 0 and probe_ops = ref 0 in
  let probe_lat = Vec.create () in
  (* One open-loop Poisson source: requests of [size] bytes due at its
     arrival times, each timed from its due time. *)
  let source (h, sess) ~req_type ~size ~spec ~on_ok =
    (* Buffer pairs are allocated on demand, up to [bufs_per_source]
       requests in flight; an arrival beyond that is shed. *)
    let bufs = ref [] and allocated = ref 0 in
    let arr =
      Workload.Arrival.make spec ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
    in
    let fire ~due ~measured =
      if !bufs = [] && !allocated < bufs_per_source then begin
        incr allocated;
        bufs := [ (Erpc.Msgbuf.alloc ~max_size:size, Erpc.Msgbuf.alloc ~max_size:32) ]
      end;
      match !bufs with
      | [] -> if measured then incr failed
      | (req, resp) :: rest ->
          bufs := rest;
          incr next_op;
          let op = !next_op in
          if measured then incr outstanding;
          Erpc.Msgbuf.resize req size;
          Spans.span sp_enqueue ~op (fun () ->
              Erpc.Rpc.enqueue_request (rpc h) sess ~req_type ~req ~resp ~cont:(fun r ->
                  Spans.span sp_continuation ~op (fun () ->
                      bufs := (req, resp) :: !bufs;
                      if measured then begin
                        decr outstanding;
                        if Result.is_ok r then on_ok ~due else incr failed
                      end)))
    in
    let rec arm rel =
      let next =
        Spans.span sp_generator ~op:0 (fun () -> Workload.Arrival.next_after arr ~now_ns:rel)
      in
      let due = t0 + next in
      if due < measure_to then
        Sim.Engine.schedule engine due (fun () ->
            Spans.span sp_arrival ~op:0 (fun () ->
                let measured = due >= measure_from in
                if measured then incr attempted;
                fire ~due ~measured;
                arm next))
    in
    arm 0
  in
  let bulk_spec =
    Workload.Arrival.On_off
      {
        rate_rps =
          burst_load *. cluster.link_gbps *. 1e9 /. 8. /. float_of_int bulk_size
          /. float_of_int degree;
        on_ns = burst_ns;
        off_ns = gap_ns;
      }
  in
  List.iter
    (fun ((h, _) as s) ->
      if List.mem h probe_hosts then
        source s ~req_type:probe_req_type ~size:probe_size
          ~spec:(Workload.Arrival.Poisson { rate_rps = probe_rate_rps })
          ~on_ok:(fun ~due ->
            incr probe_ops;
            Vec.push probe_lat (now () - due))
      else
        source s ~req_type:bulk_req_type ~size:bulk_size ~spec:bulk_spec
          ~on_ok:(fun ~due:_ -> incr bulk_ops))
    sessions;
  Experiments.Harness.run_ms d (float_of_int (warmup_ns ~quick) /. 1e6);
  let setup_s = Speed.cpu_s () -. cpu0 in
  (* Timed phase: the measured window. Requests still in flight at its
     end are drained afterwards, untimed. *)
  let bulk_rpcs = List.map rpc bulk_clients in
  let client_rpcs = bulk_rpcs @ List.map rpc probe_hosts in
  let rtt = rtt_probe bulk_rpcs in
  List.iter (fun r -> Sim.Cpu.reset_stats (Erpc.Rpc.cpu r)) (rpc victim :: client_rpcs);
  let sl = slicer () in
  let c0 = counters d in
  run_slices sl engine ~until:measure_to ~slice_ns;
  let c1 = counters d in
  let util_client = cpu_util client_rpcs and util_server = cpu_util [ rpc victim ] in
  let drain_to = measure_to + drain_cap_ns in
  while !outstanding > 0 && now () < drain_to do
    run_slices sl engine ~until:(now () + slice_ns) ~slice_ns
  done;
  if !outstanding > 0 then violate "incast: %d requests never completed" !outstanding;
  let probes = Vec.sorted probe_lat in
  {
    e_setup_s = setup_s;
    e_dc = delta c1 c0;
    e_depth_max = sl.depth_max;
    e_ops = !bulk_ops + !probe_ops;
    e_bulk_ops = !bulk_ops;
    e_attempted = !attempted;
    e_failed = !failed;
    e_probes = probes;
    e_rtts = Vec.sorted rtt;
    e_util_client = util_client;
    e_util_server = util_server;
    e_buffer_peak_kb = buffer_peak_kb d;
    e_client_rpcs =
      List.fold_left (fun a r -> a + (Erpc.Rpc.stats r).Erpc.Rpc_stats.completed) 0 client_rpcs;
    e_anatomy = anatomy ~cluster ~trace ~client_host:(fun h -> h <> victim);
    e_digest = end_digest d (probes, !bulk_ops);
    e_violations = List.rev !violations;
  }

let run ~seed ~quick ~traced =
  let rng = Sim.Rng.create seed in
  let eps =
    List.init episodes (fun _ ->
        let e = episode ~seed:(Sim.Rng.next rng) ~quick ~traced in
        (* Let the finished episode's trace go before the next one fills. *)
        if traced then Gc.full_major ();
        e)
  in
  let sum f = List.fold_left (fun a e -> a + f e) 0 eps in
  let sumf f = List.fold_left (fun a e -> a +. f e) 0. eps in
  let mean f = sumf f /. float_of_int episodes in
  let sorted f =
    let a = Array.concat (List.map f eps) in
    Array.sort compare a;
    a
  in
  let dc = List.fold_left (fun a e -> add a e.e_dc) (List.hd eps).e_dc (List.tl eps) in
  let ops = sum (fun e -> e.e_ops) and bulk_ops = sum (fun e -> e.e_bulk_ops) in
  let attempted = sum (fun e -> e.e_attempted) and failed = sum (fun e -> e.e_failed) in
  let probes = sorted (fun e -> e.e_probes) and rtts = sorted (fun e -> e.e_rtts) in
  let violations = List.concat_map (fun e -> e.e_violations) eps in
  let violations =
    if (not quick) && beyond probes 99.9 < 10 then
      violations @ [ Printf.sprintf "incast: only %d probe samples beyond P99.9" (beyond probes 99.9) ]
    else violations
  in
  let window_ns = episodes * measure_ns ~quick in
  let goodput = float_of_int (bulk_ops * bulk_size * 8) /. float_of_int window_ns in
  let threads = degree + List.length probe_hosts in
  let sim =
    [
      m "sim_mrps" "Mrps"
        (float_of_int ops /. (float_of_int window_ns /. 1e9) /. float_of_int threads /. 1e6);
      m "sim_goodput_gbps" "Gbps" goodput;
    ]
    @ latency_metrics probes
  in
  let us ns = float_of_int ns /. 1e3 in
  let layers =
    sim_layers dc
      ~buffer_peak_kb:(List.fold_left (fun a e -> Float.max a e.e_buffer_peak_kb) 0. eps)
      ~ops
    @ [
        m "erpc.client_cpu_util" "frac" (mean (fun e -> e.e_util_client));
        m "erpc.server_cpu_util" "frac" (mean (fun e -> e.e_util_server));
        m "erpc.echo_p99_us" "us" (us (pct probes 99.));
        mi "sim.latency_samples" "count" (Array.length probes);
        m "failed_frac" "frac" (ratio failed attempted);
        m "erpc.rtt_p50_us" "us" (us (pct rtts 50.));
        m "erpc.rtt_p99_us" "us" (us (pct rtts 99.));
      ]
    @ not_exercised service_names
  in
  let traced_layers, anatomy_violations =
    anatomy_metrics ~traced
      (List.fold_left (fun a e -> add_anatomy a e.e_anatomy) no_anatomy eps)
      ~client_rpcs:(sum (fun e -> e.e_client_rpcs))
  in
  {
    setup_s = sumf (fun e -> e.e_setup_s);
    timed_s = dc.cpu_s;
    ops;
    attempted;
    failed;
    sim;
    layers;
    traced_layers;
    host_layers =
      host_layers dc
        ~depth_max:(List.fold_left (fun a e -> max a e.e_depth_max) 0 eps)
        ~arrivals:attempted;
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map (fun e -> e.e_digest) eps)));
    violations = violations @ anatomy_violations;
    notes =
      [
        latency_note "32 B probe latency (from due time)" probes;
        Printf.sprintf "bulk goodput %.3f Gbps over %d requests of %d B in %d episodes"
          goodput bulk_ops bulk_size episodes;
        Printf.sprintf
          "erpc.rtt p50 %.3fus p99 %.3fus (paper Table 5, 20-way incast with CC: 39 / 67 us; \
           there the senders saturate the victim)"
          (us (pct rtts 50.)) (us (pct rtts 99.));
      ];
  }
