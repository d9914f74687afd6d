(* Simulator-throughput bench: how fast does the discrete-event engine
   chew through events, and how much does each event allocate?

   Unlike the paper experiments (which measure *simulated* metrics —
   Gbps, Mrps, RTTs), this bench measures the simulator itself: CPU
   seconds, events per wall-clock second, and minor-heap words per event. *)

type row = {
  workload : string;
  wall_s : float;
  events : int;
  events_per_sec : float;
  minor_words_per_event : float;
  events_by_layer : (string * int) list;  (* [events] by layer, the engine's census *)
  digest : string;  (* deterministic run fingerprint, for the --rerun gate *)
}

(* {2 Workloads}

   Small, fixed-seed deployments chosen to stress different engine
   behaviours: incast (deep port queues, CC timers), rate (small-RPC
   pipelining, the Fig. 4 shape), bandwidth (multi-packet messages,
   credit ping-pong) and chaos (fault schedules: retransmission timers,
   crashes, partitions). Each returns its event census and fingerprint. *)

let connect_all d ~(pairs : (Erpc.Rpc.t * int) array) =
  Array.map
    (fun (rpc, remote_host) -> Harness.connect d rpc ~remote_host ~remote_rpc_id:0)
    pairs

(* Deterministic end-state fingerprint for the [--rerun] gate: simulated
   clock, event count and aggregate RPC stats. Everything here derives
   from simulation state, so a same-seed rerun must reproduce it
   byte-for-byte. *)
let deploy_fingerprint (d : Harness.deployment) ~events =
  let engine = Erpc.Fabric.engine d.fabric in
  let all = Array.to_list d.rpcs |> List.concat_map Array.to_list in
  let sum f = List.fold_left (fun acc r -> acc + f (Erpc.Rpc.stats r)) 0 all in
  Printf.sprintf "now=%d events=%d handled=%d retx=%d resets=%d corrupt=%d"
    (Sim.Engine.now engine) events
    (sum (fun s -> s.Erpc.Rpc_stats.handled))
    (sum (fun s -> s.Erpc.Rpc_stats.retransmits))
    (sum (fun s -> s.Erpc.Rpc_stats.session_resets))
    (sum (fun s -> s.Erpc.Rpc_stats.rx_corrupt))

let incast ~seed () =
  let degree = 10 in
  let cluster = Transport.Cluster.cx4 ~nodes:(degree + 1) () in
  let d =
    Harness.deploy ~seed cluster ~threads_per_host:1
      ~register:(Harness.register_echo ~resp_size:32)
  in
  let victim = degree in
  let drivers =
    Array.init degree (fun h ->
        let rpc = d.rpcs.(h).(0) in
        let sessions = connect_all d ~pairs:[| (rpc, victim) |] in
        Harness.make_driver
          ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
          ~rpc ~sessions ~window:16 ~req_size:1024 ())
  in
  Array.iter Harness.start_driver drivers;
  Harness.run_ms d 5.0;
  let engine = Erpc.Fabric.engine d.fabric in
  (Sim.Engine.census engine, deploy_fingerprint d ~events:(Sim.Engine.events_processed engine))

let rate ~seed () =
  let cluster = Transport.Cluster.cx4 ~nodes:2 () in
  let d =
    Harness.deploy ~seed cluster ~threads_per_host:1 ~register:Harness.register_echo
  in
  let rpc = d.rpcs.(0).(0) in
  let sessions = connect_all d ~pairs:[| (rpc, 1) |] in
  let driver =
    Harness.make_driver
      ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
      ~rpc ~sessions ~window:60 ~batch:3 ~req_size:32 ()
  in
  Harness.start_driver driver;
  Harness.run_ms d 5.0;
  let engine = Erpc.Fabric.engine d.fabric in
  (Sim.Engine.census engine, deploy_fingerprint d ~events:(Sim.Engine.events_processed engine))

let bandwidth ~seed () =
  let cluster = Transport.Cluster.cx4 ~nodes:2 () in
  let d =
    Harness.deploy ~seed cluster ~threads_per_host:1
      ~register:(Harness.register_echo ~resp_size:32)
  in
  let rpc = d.rpcs.(0).(0) in
  let sessions = connect_all d ~pairs:[| (rpc, 1) |] in
  let driver =
    Harness.make_driver
      ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
      ~rpc ~sessions ~window:2 ~req_size:(256 * 1024) ()
  in
  Harness.start_driver driver;
  Harness.run_ms d 5.0;
  let engine = Erpc.Fabric.engine d.fabric in
  (Sim.Engine.census engine, deploy_fingerprint d ~events:(Sim.Engine.events_processed engine))

let chaos ~seed () =
  let census = ref [] in
  let buf = Buffer.create 256 in
  for i = 0 to 2 do
    let r = Chaos.run_one ~seed:(Int64.add seed (Int64.of_int (7_919 * i))) () in
    census :=
      (match !census with
      | [] -> r.Chaos.census
      | c -> List.map2 (fun (l, a) (_, b) -> (l, a + b)) c r.Chaos.census);
    (* The chaos trace is the run's canonical identity; hash it rather
       than carrying megabytes of text into the fingerprint. *)
    Buffer.add_string buf (Digest.to_hex (Digest.string r.Chaos.trace));
    Buffer.add_char buf '|'
  done;
  (!census, Buffer.contents buf)

let workloads =
  [ ("incast", incast); ("rate", rate); ("bandwidth", bandwidth); ("chaos", chaos) ]

let workload_names = List.map fst workloads

(* {2 Measurement} *)

let run_one ~workload ~seed =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Bench_sim.run_one: unknown workload %S" workload)
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let events_by_layer, fingerprint = f ~seed () in
  let wall_s = Sys.time () -. t0 in
  let events = List.fold_left (fun acc (_, n) -> acc + n) 0 events_by_layer in
  let words = Gc.minor_words () -. w0 in
  {
    workload;
    wall_s;
    events;
    events_per_sec = (if wall_s > 0. then float_of_int events /. wall_s else 0.);
    minor_words_per_event = (if events > 0 then words /. float_of_int events else 0.);
    events_by_layer;
    digest = Digest.to_hex (Digest.string (Printf.sprintf "%s:%s" workload fingerprint));
  }

let row_json r =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str r.workload);
      ("wall_s", Obs.Json.Float r.wall_s);
      ("events", Obs.Json.Int r.events);
      ("events_per_sec", Obs.Json.Float r.events_per_sec);
      ("minor_words_per_event", Obs.Json.Float r.minor_words_per_event);
      ( "events_by_layer",
        Obs.Json.Obj (List.map (fun (l, n) -> (l, Obs.Json.Int n)) r.events_by_layer) );
      ("digest", Obs.Json.Str r.digest);
    ]

(* Every run is one engine on one domain, so [domains] is always 1 and
   [speedup_vs_1dom] always 1.0; [host_cores] records the host. *)
let to_json rows =
  Obs.Json.Obj
    [
      ("benchmark", Obs.Json.Str "sim_events");
      ("unit", Obs.Json.Str "events/s");
      ("domains", Obs.Json.Int 1);
      ("host_cores", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("speedup_vs_1dom", Obs.Json.Float 1.0);
      ("rows", Obs.Json.Arr (List.map row_json rows));
    ]
