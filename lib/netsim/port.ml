type ecn_config = { kmin_bytes : int; kmax_bytes : int; pmax : float }

type t = {
  engine : Sim.Engine.t;
  name : string;
  rate_gbps : float;
  extra_delay_ns : int;
  pool : Buffer_pool.t option;
  ecn : ecn_config option;
  lossless : bool;
  rng : Sim.Rng.t;
  packets : Packet.table;
  queue : Sim.Ring.t;  (* packet handles *)
  (* Handlers of the serialization-done and link-flight events, which
     carry their packet's handle. *)
  mutable ser_done : Sim.Engine.handler;
  mutable arrive : Sim.Engine.handler;
  mutable queued_bytes : int;
  mutable draining : bool;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable dropped_packets : int;
  mutable dropped_bytes : int;
  mutable pause_events : int;
  mutable max_queued_bytes : int;
  trace : Obs.Trace.t;
  tid : int;  (* this port's thread track under the network pid *)
}

(* Queue-occupancy counter sample; rendered by Perfetto as a per-port area
   chart (switch-buffer occupancy under incast, Table 5's "buffer"). *)
let trace_queue t ts =
  Obs.Trace.counter t.trace ~ts ~cat:"net" ~name:t.name ~pid:Obs.Trace.net_pid
    [
      ("queued_bytes", Obs.Trace.I t.queued_bytes);
      ( "pool_used",
        Obs.Trace.I (match t.pool with Some p -> Buffer_pool.used p | None -> 0) );
    ]

let serialization t pkt = Sim.Time.of_bytes_at_gbps pkt.Packet.size_bytes t.rate_gbps

let drain t =
  if Sim.Ring.is_empty t.queue then t.draining <- false
  else begin
    let h = Sim.Ring.take t.queue in
    Sim.Engine.post_after t.engine (serialization t (Packet.get t.packets h)) t.ser_done h
  end

let ser_done t h =
  let pkt = Packet.get t.packets h in
  t.queued_bytes <- t.queued_bytes - pkt.Packet.size_bytes;
  (match t.pool with Some pool -> Buffer_pool.release pool pkt.Packet.size_bytes | None -> ());
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + pkt.Packet.size_bytes;
  if Obs.Trace.enabled t.trace then trace_queue t (Sim.Engine.now t.engine);
  Sim.Engine.post_after t.engine t.extra_delay_ns t.arrive h;
  drain t

let create engine ~packets ~name ~rate_gbps ~extra_delay_ns ?pool ?ecn ?(lossless = false) ~sink
    () =
  let trace = Sim.Engine.trace engine in
  Obs.Trace.register_process trace ~pid:Obs.Trace.net_pid "network";
  let tid = Obs.Trace.register_track trace ~pid:Obs.Trace.net_pid name in
  let t =
    {
      engine;
      name;
      rate_gbps;
      extra_delay_ns;
      pool;
      ecn;
      lossless;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      packets;
      queue = Sim.Ring.create ~capacity:64 ();
      ser_done = Sim.Engine.no_handler;
      arrive = Sim.Engine.no_handler;
      queued_bytes = 0;
      draining = false;
      tx_packets = 0;
      tx_bytes = 0;
      dropped_packets = 0;
      dropped_bytes = 0;
      pause_events = 0;
      max_queued_bytes = 0;
      trace;
      tid;
    }
  in
  t.ser_done <- Sim.Engine.handler engine ~layer:Port (fun h -> ser_done t h);
  t.arrive <- Sim.Engine.handler engine ~layer:Link (fun h -> sink (Packet.get packets h));
  let m = Sim.Engine.metrics engine in
  let labels = [ ("port", name) ] in
  Obs.Metrics.counter m ~name:"port.tx_pkts" ~labels (fun () -> t.tx_packets);
  Obs.Metrics.counter m ~name:"port.dropped_pkts" ~labels (fun () -> t.dropped_packets);
  Obs.Metrics.counter m ~name:"port.pause_events" ~labels (fun () -> t.pause_events);
  Obs.Metrics.gauge m ~name:"port.queued_bytes" ~labels (fun () ->
      float_of_int t.queued_bytes);
  Obs.Metrics.gauge m ~name:"port.max_queued_bytes" ~labels (fun () ->
      float_of_int t.max_queued_bytes);
  t

let send t pkt =
  let size = pkt.Packet.size_bytes in
  let admitted =
    match t.pool with
    | None -> true
    | Some pool ->
        let ok = Buffer_pool.admit pool ~port_queued_bytes:t.queued_bytes ~size in
        if (not ok) && t.lossless then begin
          (* PFC: a lossless fabric pauses the sender instead of dropping;
             modeled as forced admission with the pause counted. Pause
             propagation (HOL blocking, deadlocks) is out of scope. *)
          t.pause_events <- t.pause_events + 1;
          if Obs.Trace.enabled t.trace then
            Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"net"
              ~name:"pause" ~pid:Obs.Trace.net_pid ~tid:t.tid
              [ ("id", Obs.Trace.I pkt.Packet.trace_id) ];
          Buffer_pool.admit ~force:true pool ~port_queued_bytes:t.queued_bytes ~size
        end
        else ok
  in
  if admitted then begin
    (* RED-style ECN marking on the instantaneous queue (DCQCN's switch
       side). *)
    (match t.ecn with
    | Some { kmin_bytes; kmax_bytes; pmax } ->
        if t.queued_bytes > kmin_bytes then begin
          let p =
            if t.queued_bytes >= kmax_bytes then 1.0
            else
              pmax
              *. (float_of_int (t.queued_bytes - kmin_bytes)
                 /. float_of_int (Int.max 1 (kmax_bytes - kmin_bytes)))
          in
          if Sim.Rng.bool_with_prob t.rng p then pkt.Packet.ecn <- true
        end
    | None -> ());
    Sim.Ring.push t.queue (Packet.intern t.packets pkt);
    t.queued_bytes <- t.queued_bytes + size;
    if t.queued_bytes > t.max_queued_bytes then t.max_queued_bytes <- t.queued_bytes;
    if Obs.Trace.enabled t.trace then begin
      let ts = Sim.Engine.now t.engine in
      Obs.Trace.instant t.trace ~ts ~cat:"net" ~name:"enq"
        ~pid:Obs.Trace.net_pid ~tid:t.tid
        [ ("id", Obs.Trace.I pkt.Packet.trace_id); ("size", Obs.Trace.I size) ];
      trace_queue t ts
    end;
    if not t.draining then begin
      t.draining <- true;
      drain t
    end;
    true
  end
  else begin
    t.dropped_packets <- t.dropped_packets + 1;
    t.dropped_bytes <- t.dropped_bytes + size;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"net"
        ~name:"drop" ~pid:Obs.Trace.net_pid ~tid:t.tid
        [
          ("id", Obs.Trace.I pkt.Packet.trace_id);
          ("size", Obs.Trace.I size);
          ("reason", Obs.Trace.S "buffer");
        ];
    Packet.free pkt;
    false
  end

let name t = t.name
let queued_bytes t = t.queued_bytes

let queue_delay t =
  Sim.Time.of_bytes_at_gbps t.queued_bytes t.rate_gbps

let rate_gbps t = t.rate_gbps
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let dropped_packets t = t.dropped_packets
let dropped_bytes t = t.dropped_bytes
let pause_events t = t.pause_events

let reset_stats t =
  t.tx_packets <- 0;
  t.tx_bytes <- 0;
  t.dropped_packets <- 0;
  t.dropped_bytes <- 0;
  t.max_queued_bytes <- t.queued_bytes
