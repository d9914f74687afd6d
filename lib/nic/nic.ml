module Conn_cache = Conn_cache

type config = {
  tx_latency_ns : int;
  rx_latency_ns : int;
  rx_jitter_ns : int;
  tx_flush_ns : int;
  rq_size : int;
  multi_packet_rq : bool;
  multi_packet_rq_stride : int;
  rq_replenish_unit_ns : int;
}

let default_config =
  {
    tx_latency_ns = 300;
    rx_latency_ns = 250;
    rx_jitter_ns = 0;
    tx_flush_ns = 2_000;
    rq_size = 4096;
    multi_packet_rq = true;
    multi_packet_rq_stride = 512;
    rq_replenish_unit_ns = 7;
  }

(* RC mode: a TX miss in the connection-state cache fetches ~375 B of RC
   state over PCIe before the descriptor can be processed. *)
let conn_miss_ns = 120

type t = {
  engine : Sim.Engine.t;
  net : Netsim.Network.t;
  packets : Netsim.Packet.table;
  host : int;
  cfg : config;
  rng : Sim.Rng.t;
  conn_cache : Conn_cache.t option;  (* [Some] selects RDMA RC mode *)
  mutable rx_last_delivery : Sim.Time.t;
  mutable tx_last_done : Sim.Time.t;
  (* (entry time at the NIC, wire-entry time) of every descriptor whose
     DMA has not completed, in post order. A descriptor counts as posted
     only from its entry time on. *)
  tx_inflight : Sim.Ring.t;
  rx_ring : Sim.Ring.t;  (* packet handles *)
  (* Handlers of the DMA pipeline completions, which carry their packet's
     handle. *)
  mutable rx_done : Sim.Engine.handler;
  mutable tx_done : Sim.Engine.handler;
  mutable rx_notify : unit -> unit;
  mutable rq_available : int;
  mutable replenish_partial : int;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_dropped : int;
  trace : Obs.Trace.t;
  pid : int;
  tid : int;  (* the host's "nic" thread track *)
}

let kind t = match t.conn_cache with None -> "raw_eth" | Some _ -> "rdma_rc"
let rq_size t = t.cfg.rq_size

(* RX DMA pipeline completion: drop if no descriptor (raw Ethernet only),
   else ring the packet for the owner's poll. *)
let rx_complete t h =
  let pkt = Netsim.Packet.get t.packets h in
  if t.rq_available <= 0 && Option.is_none t.conn_cache then begin
    t.rx_dropped <- t.rx_dropped + 1;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"nic"
        ~name:"rx_drop" ~pid:t.pid ~tid:t.tid
        [
          ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id);
          ("reason", Obs.Trace.S "no_desc");
        ];
    Netsim.Packet.free pkt
  end
  else begin
    t.rq_available <- t.rq_available - 1;
    t.rx_packets <- t.rx_packets + 1;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"nic"
        ~name:"rx" ~pid:t.pid ~tid:t.tid
        [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
    let was_empty = Sim.Ring.is_empty t.rx_ring in
    Sim.Ring.push t.rx_ring h;
    if was_empty then t.rx_notify ()
  end

let receive t pkt =
  (* DMA write + CQE after rx_latency_ns (plus bounded jitter from PCIe and
     DMA-batching variability). Delivery stays FIFO: jitter may delay,
     never reorder. *)
  let jitter = if t.cfg.rx_jitter_ns > 0 then Sim.Rng.int t.rng (t.cfg.rx_jitter_ns + 1) else 0 in
  let now = Sim.Engine.now t.engine in
  let at = Int.max (now + t.cfg.rx_latency_ns + jitter) t.rx_last_delivery in
  t.rx_last_delivery <- at;
  Sim.Engine.post t.engine at t.rx_done (Netsim.Packet.intern t.packets pkt)

let tx_complete t h =
  ignore (Sim.Ring.take t.tx_inflight);
  ignore (Sim.Ring.take t.tx_inflight);
  Netsim.Network.send t.net (Netsim.Packet.get t.packets h)

let create ?conn_cache engine net ~host cfg =
  if Option.is_some conn_cache && cfg.rx_jitter_ns <> 0 then
    invalid_arg "Nic.create: RC mode has no RX jitter";
  let trace = Sim.Engine.trace engine in
  let pid = Obs.Trace.host_pid host in
  Obs.Trace.register_process trace ~pid (Printf.sprintf "host%d" host);
  let tid = Obs.Trace.register_track trace ~pid "nic" in
  let t =
    {
      engine;
      net;
      packets = Netsim.Network.packets net;
      host;
      cfg;
      (* Raw Ethernet splits its jitter stream off the engine's even at zero
         jitter; the deterministic RC pipeline leaves the engine's alone. *)
      rng =
        (match conn_cache with
        | None -> Sim.Rng.split (Sim.Engine.rng engine)
        | Some _ -> Sim.Rng.create 0L);
      conn_cache;
      rx_last_delivery = Sim.Time.zero;
      tx_last_done = Sim.Time.zero;
      tx_inflight = Sim.Ring.create ();
      rx_ring = Sim.Ring.create ~capacity:64 ();
      rx_done = Sim.Engine.no_handler;
      tx_done = Sim.Engine.no_handler;
      rx_notify = (fun () -> ());
      rq_available = cfg.rq_size;
      replenish_partial = 0;
      rx_packets = 0;
      tx_packets = 0;
      rx_dropped = 0;
      trace;
      pid;
      tid;
    }
  in
  t.rx_done <- Sim.Engine.handler engine ~layer:Nic (fun h -> rx_complete t h);
  t.tx_done <- Sim.Engine.handler engine ~layer:Nic (fun h -> tx_complete t h);
  t

let tx_burst t ~at pkt =
  let at = Int.max at (Sim.Engine.now t.engine) in
  let lat =
    match t.conn_cache with
    | Some cache when not (Conn_cache.access cache ((t.host * 65_537) + pkt.Netsim.Packet.dst)) ->
        t.cfg.tx_latency_ns + conn_miss_ns
    | _ -> t.cfg.tx_latency_ns
  in
  t.tx_packets <- t.tx_packets + 1;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace ~ts:at ~cat:"nic" ~name:"tx"
      ~pid:t.pid ~tid:t.tid
      [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
  (* Descriptors enter the wire in post order even when an RC cache hit
     follows a miss: the send queue is FIFO. At a constant latency the
     clamp never binds, so [tx_last_done] is always the last entry time. *)
  let enter = Int.max (Sim.Time.add at lat) t.tx_last_done in
  t.tx_last_done <- enter;
  Sim.Ring.push t.tx_inflight at;
  Sim.Ring.push t.tx_inflight enter;
  Sim.Engine.post t.engine enter t.tx_done (Netsim.Packet.intern t.packets pkt)

(* The descriptors posted by now whose DMA has not completed: their count
   and the last one's wire-entry time. *)
let posted_by_now t =
  let now = Sim.Engine.now t.engine in
  let count = ref 0 and last_enter = ref now in
  for k = 0 to (Sim.Ring.length t.tx_inflight / 2) - 1 do
    if Sim.Ring.get t.tx_inflight (2 * k) <= now then begin
      incr count;
      last_enter := Sim.Ring.get t.tx_inflight ((2 * k) + 1)
    end
  done;
  (!count, !last_enter)

let tx_pending t = fst (posted_by_now t)

let flush_time_ns t =
  let _, last_enter = posted_by_now t in
  Int.max 0 (Sim.Time.sub last_enter (Sim.Engine.now t.engine)) + t.cfg.tx_flush_ns

let rx_burst t ~max f =
  let n = ref 0 in
  while !n < max && not (Sim.Ring.is_empty t.rx_ring) do
    incr n;
    f (Netsim.Packet.get t.packets (Sim.Ring.take t.rx_ring))
  done;
  !n

let rx_ring_depth t = Sim.Ring.length t.rx_ring
let set_rx_notify t f = t.rx_notify <- f

let replenish_rx t n =
  assert (n >= 0);
  t.rq_available <- Int.min t.cfg.rq_size (t.rq_available + n);
  if t.cfg.multi_packet_rq then begin
    let total = t.replenish_partial + n in
    let posts = total / t.cfg.multi_packet_rq_stride in
    t.replenish_partial <- total mod t.cfg.multi_packet_rq_stride;
    posts * t.cfg.rq_replenish_unit_ns
  end
  else n * t.cfg.rq_replenish_unit_ns

let reset_rx t =
  (* Packets stranded in the ring die with the crashed process. *)
  while not (Sim.Ring.is_empty t.rx_ring) do
    Netsim.Packet.free (Netsim.Packet.get t.packets (Sim.Ring.take t.rx_ring))
  done;
  t.rq_available <- t.cfg.rq_size;
  t.replenish_partial <- 0

let rx_packets t = t.rx_packets
let tx_packets t = t.tx_packets
let rx_dropped t = t.rx_dropped
