(* Lossless RC transport: the InfiniBand-style datapath of paper §3.

   Reuses the RDMA layer's machinery rather than the userspace-NIC model:
   per-packet TX/RX latencies come from the verbs-endpoint timing
   ({!Qp.default_config}: the UD-path NIC latencies minus the RDMA
   hardware-path delta, with RX jitter collapsed to its mean — the RC
   pipeline is deterministic), and TX passes through the NIC's
   connection-state cache ({!Conn_cache}): a miss stalls the descriptor
   while connection state is fetched from host memory over PCIe, the
   Figure-1 scalability cliff.

   Lossless means link-level flow control: the fabric never drops for
   want of a receive descriptor, so [rx_dropped] is always 0 and arriving
   packets are delivered even when the RQ is momentarily behind. Loss
   injected by the network model (corruption, partitions, switch faults)
   still reaches the protocol, which recovers exactly as over the lossy
   transport. *)

module Impl = struct
  type t = {
    engine : Sim.Engine.t;
    net : Netsim.Network.t;
    host : int;
    mtu : int;
    rq_size_ : int;
    tx_ns : int;
    rx_ns : int;
    tx_flush_ns : int;
    conn_miss_ns : int;
    cache : Conn_cache.t;
    rx_ring : Netsim.Packet.t Sim.Ring.t;
    (* Preallocated handlers for the pipeline completions, which carry
       their packet as the event argument: the per-packet hops allocate
       no closures. *)
    mutable rx_done : Netsim.Packet.t -> unit;
    mutable tx_done : Netsim.Packet.t -> unit;
    mutable rx_notify : unit -> unit;
    mutable rx_last_delivery : Sim.Time.t;
    mutable tx_last_enter : Sim.Time.t;
    mutable tx_last_done : Sim.Time.t;
    mutable tx_pending_ : int;
    stride : int;
    replenish_unit_ns : int;
    mutable replenish_partial : int;
    mutable rx_packets_ : int;
    mutable tx_packets_ : int;
    trace : Obs.Trace.t;
    pid : int;
    tid : int;  (* the host's "nic" device track *)
  }

  let kind = "rdma_rc"
  let lossless _ = true
  let max_data_per_pkt t = t.mtu
  let rq_size t = t.rq_size_

  let tx_complete t pkt =
    t.tx_pending_ <- t.tx_pending_ - 1;
    Netsim.Network.send t.net pkt

  let tx_burst t pkt =
    (* Connection-state lookup in NIC SRAM; a miss fetches ~375 B of RC
       state over PCIe before the descriptor can be processed. *)
    let hit = Conn_cache.access t.cache ((t.host * 65_537) + pkt.Netsim.Packet.dst) in
    let lat = t.tx_ns + if hit then 0 else t.conn_miss_ns in
    t.tx_pending_ <- t.tx_pending_ + 1;
    t.tx_packets_ <- t.tx_packets_ + 1;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"nic" ~name:"tx"
        ~pid:t.pid ~tid:t.tid
        [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
    let now = Sim.Engine.now t.engine in
    (* Descriptors enter the wire in post order even when a hit follows a
       miss: the send queue is FIFO. *)
    let enter = Int.max (Sim.Time.add now lat) t.tx_last_enter in
    t.tx_last_enter <- enter;
    if enter > t.tx_last_done then t.tx_last_done <- enter;
    Sim.Engine.schedule_arg t.engine enter t.tx_done pkt

  let tx_pending t = t.tx_pending_

  let flush_time_ns t =
    let now = Sim.Engine.now t.engine in
    let wait = if t.tx_pending_ > 0 then Int.max 0 (Sim.Time.sub t.tx_last_done now) else 0 in
    wait + t.tx_flush_ns

  let rx_burst t ~max f =
    let n = ref 0 in
    while !n < max && not (Sim.Ring.is_empty t.rx_ring) do
      incr n;
      f (Sim.Ring.take t.rx_ring)
    done;
    !n

  let rx_ring_depth t = Sim.Ring.length t.rx_ring
  let set_rx_notify t f = t.rx_notify <- f

  let replenish_rx t n =
    assert (n >= 0);
    (* RECVs are re-posted in multi-packet strides like the UD path; the
       cost is the same amortized descriptor work. *)
    let total = t.replenish_partial + n in
    let posts = total / t.stride in
    t.replenish_partial <- total mod t.stride;
    posts * t.replenish_unit_ns

  let rx_complete t pkt =
    t.rx_packets_ <- t.rx_packets_ + 1;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"nic" ~name:"rx"
        ~pid:t.pid ~tid:t.tid
        [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
    let was_empty = Sim.Ring.is_empty t.rx_ring in
    Sim.Ring.push t.rx_ring pkt;
    if was_empty then t.rx_notify ()

  let receive t pkt =
    (* Fixed RX pipeline delay, FIFO delivery, and — lossless — never a
       drop: link-level flow control backpressures the sender instead. *)
    let now = Sim.Engine.now t.engine in
    let at = Int.max (Sim.Time.add now t.rx_ns) t.rx_last_delivery in
    t.rx_last_delivery <- at;
    Sim.Engine.schedule_arg t.engine at t.rx_done pkt

  let reset_rx t =
    while not (Sim.Ring.is_empty t.rx_ring) do
      Netsim.Packet.free (Sim.Ring.take t.rx_ring)
    done;
    t.replenish_partial <- 0

  let rx_packets t = t.rx_packets_
  let tx_packets t = t.tx_packets_
  let rx_dropped (_ : t) = 0
end

let create ?(conn_miss_ns = 120) ?cache engine net ~host (cluster : Transport.Cluster.t) =
  let qp = Qp.default_config cluster in
  let nic = cluster.nic_config in
  let trace = Sim.Engine.trace engine in
  let pid = Obs.Trace.host_pid host in
  Obs.Trace.register_process trace ~pid (Printf.sprintf "host%d" host);
  let tid = Obs.Trace.register_track trace ~pid "nic" in
  let t =
    {
      Impl.engine;
      net;
      host;
      mtu = cluster.mtu;
      rq_size_ = nic.Nic.rq_size;
      tx_ns = qp.Qp.nic_tx_ns;
      rx_ns = qp.Qp.nic_rx_ns;
      tx_flush_ns = nic.Nic.tx_flush_ns;
      conn_miss_ns;
      cache = (match cache with Some c -> c | None -> Conn_cache.create_default ());
      rx_ring = Sim.Ring.create ~capacity:64 ~dummy:Netsim.Packet.nil ();
      rx_done = ignore;
      tx_done = ignore;
      rx_notify = (fun () -> ());
      rx_last_delivery = Sim.Time.zero;
      tx_last_enter = Sim.Time.zero;
      tx_last_done = Sim.Time.zero;
      tx_pending_ = 0;
      stride = nic.Nic.multi_packet_rq_stride;
      replenish_unit_ns = nic.Nic.rq_replenish_unit_ns;
      replenish_partial = 0;
      rx_packets_ = 0;
      tx_packets_ = 0;
      trace;
      pid;
      tid;
    }
  in
  t.Impl.rx_done <- (fun pkt -> Impl.rx_complete t pkt);
  t.Impl.tx_done <- (fun pkt -> Impl.tx_complete t pkt);
  Transport.Iface.T ((module Impl : Transport.Iface.S with type t = Impl.t), t)
