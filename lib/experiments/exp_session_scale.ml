(* Fig. 7-style session scalability: eRPC's constant-size per-session
   state (no per-connection NIC queue pairs — datagram transport plus
   credit windows drawn from one shared RQ) means one Rpc can serve tens
   of thousands of sessions. A single client Rpc opens [sessions]
   sessions to one server Rpc on the CX4 cluster (RQ = 2^20 descriptors,
   so 20,000 sessions x 32 credits fits the §4.3.1 budget), completes
   every handshake, then drives a closed-loop small-RPC workload spread
   uniformly over all sessions.

   This doubles as a stress test for the simulator overhaul: tens of
   thousands of live sessions exercise the timing wheel's overflow heap
   (RTO timers land far outside the 16us wheel window) and the packet
   pool under heavy reuse. *)

type result = {
  sessions : int;
  completed : int;  (** client RPCs finished in the measured window *)
  mrps : float;  (** simulated millions of requests per second *)
  lat_p50_us : float;
  lat_p99_us : float;
  events : int;  (** simulator events executed for the whole run *)
  cpu_s : float;  (** CPU seconds for the whole run ([Sys.time]) *)
}

let run ?(seed = 42L) ?(req_size = 32) ?(window = 64) ?(measure_ms = 2.0) ~sessions () =
  if sessions < 1 then invalid_arg "Exp_session_scale.run: sessions must be >= 1";
  let t0 = Sys.time () in
  let cluster = Transport.Cluster.cx4 ~nodes:2 () in
  let d =
    Harness.deploy ~seed cluster ~threads_per_host:1 ~register:Harness.register_echo
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let client = d.rpcs.(0).(0) in
  (* Open every session up front, then run the fabric until all
     handshakes complete; connecting one at a time would cost [sessions]
     separate drains. *)
  let status = Array.make sessions None in
  let sess =
    Array.init sessions (fun i ->
        Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0
          ~on_connect:(fun r -> status.(i) <- Some r)
          ())
  in
  let rec wait tries =
    if Array.exists (fun s -> s = None) status then
      if tries = 0 then failwith "Exp_session_scale: handshakes did not complete"
      else begin
        Harness.run_ms d 1.0;
        wait (tries - 1)
      end
  in
  wait 200;
  Array.iteri
    (fun i s ->
      match s with
      | Some (Ok ()) -> ()
      | Some (Error e) ->
          failwith (Printf.sprintf "Exp_session_scale: session %d: %s" i (Erpc.Err.to_string e))
      | None -> assert false)
    status;
  let latencies = Stats.Hist.create () in
  let driver =
    Harness.make_driver ~latencies
      ~payload:(Harness.Echo { req_size; resp_size = 32 })
      ~rng:(Sim.Rng.split (Sim.Engine.rng engine)) ~rpc:client ~sessions:sess ~window ()
  in
  Harness.start_driver driver;
  (* Warmup fills the window; then measure. *)
  Harness.run_ms d 1.0;
  let c0 = Harness.driver_completed driver in
  Harness.run_ms d measure_ms;
  let completed = Harness.driver_completed driver - c0 in
  {
    sessions;
    completed;
    mrps = float_of_int completed /. (measure_ms *. 1e-3) /. 1e6;
    lat_p50_us = Harness.us_at latencies 50.;
    lat_p99_us = Harness.us_at latencies 99.;
    events = Sim.Engine.events_processed engine;
    cpu_s = Sys.time () -. t0;
  }

let sweep_points = [ 100; 1_000; 5_000; 10_000; 20_000 ]

let sweep ?seed ?req_size ?window ?measure_ms () =
  List.map (fun sessions -> run ?seed ?req_size ?window ?measure_ms ~sessions ()) sweep_points
