type row = {
  threads_per_node : int;
  per_node_mrps : float;
  lat_p50_us : float;
  lat_p99_us : float;
  lat_p999_us : float;
  lat_p9999_us : float;
  retransmits_per_node_per_sec : float;
}

let run ?seed ?(nodes = 100) ?(credits = 32) ?(warmup_us = 300.) ?(measure_us = 700.) ~threads
    () =
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let config = Erpc.Config.of_cluster ~credits cluster in
  let d =
    Harness.deploy ?seed ~config cluster ~threads_per_host:threads
      ~register:(Harness.register_echo ~resp_size:32)
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let total_threads = nodes * threads in
  let hist = Stats.Hist.create () in
  (* Every thread opens a client session to every other thread. *)
  let drivers = ref [] in
  for host = 0 to nodes - 1 do
    for thr = 0 to threads - 1 do
      let self = (host * threads) + thr in
      let sessions =
        Array.init (total_threads - 1) (fun j ->
            let peer = if j < self then j else j + 1 in
            Erpc.Rpc.create_session d.rpcs.(host).(thr) ~remote_host:(peer / threads)
              ~remote_rpc_id:(peer mod threads) ())
      in
      drivers :=
        Harness.make_driver ~latencies:hist ~batch:3 ~rng:(Sim.Rng.split rng)
          ~rpc:d.rpcs.(host).(thr) ~sessions ~window:60 ()
        :: !drivers
    done
  done;
  (* Let the connection storm settle. *)
  Harness.run_ms d 2.0;
  List.iter Harness.start_driver !drivers;
  Harness.run_us d warmup_us;
  Stats.Hist.clear hist;
  let completed0 = Harness.total_completed d in
  let retx0 = Harness.sum_stats d (fun s -> s.Erpc.Rpc_stats.retransmits) in
  Harness.run_us d measure_us;
  let completed1 = Harness.total_completed d in
  let retx1 = Harness.sum_stats d (fun s -> s.Erpc.Rpc_stats.retransmits) in
  let secs = measure_us /. 1e6 in
  {
    threads_per_node = threads;
    per_node_mrps = float_of_int (completed1 - completed0) /. float_of_int nodes /. secs /. 1e6;
    lat_p50_us = Harness.us_at hist 50.;
    lat_p99_us = Harness.us_at hist 99.;
    lat_p999_us = Harness.us_at hist 99.9;
    lat_p9999_us = Harness.us_at hist 99.99;
    retransmits_per_node_per_sec = float_of_int (retx1 - retx0) /. float_of_int nodes /. secs;
  }
