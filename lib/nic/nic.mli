(** Userspace-NIC model: the wire packet I/O device an {!Erpc.Rpc}
    endpoint owns — the [Wire] case of [Transport.Iface.t], checked
    against [Transport.Iface.S] — and the only device that puts packets
    on the network ({!Shm} holds one for its remote traffic).

    Models the mechanisms eRPC's design depends on (§4.1, Appendix A):

    - a TX queue whose descriptors are {e unsignaled}: the host never learns
      when DMA completes, except by an explicit [flush] (the paper's ~2 µs
      TX-queue flush used on retransmission and node failure);
    - an RX queue (RQ) of pre-posted descriptors: an arriving packet with no
      available descriptor is dropped, which is why eRPC sizes session
      credits against [rq_size];
    - multi-packet RQ descriptors: with the optimization on, re-posting
      descriptors costs 7 ns of CPU once per 512 packets instead of once
      per packet (the caller charges the cost {!replenish_rx} returns);
    - an RX ring polled by the owner; a simulation-only [rx_notify] hook
      stands in for busy polling and lets the owner schedule its event loop
      activation.

    TX is unsignaled and RX is a ring: the model has no completion queue.
    A TX queue flush costs 2 µs on top of the pending DMA. These costs, the
    512-packet stride and the 7 ns per descriptor are constants of the
    model: no profile differs in them.

    Fixed [tx_latency_ns]/[rx_latency_ns] model DMA + NIC processing and are
    part of the ~850 ns per-host latency adder the paper measures (§6.1).

    The device runs in one of two modes, chosen at {!create}:
    - {b raw Ethernet} ([kind] ["raw_eth"], the DPDK-style datapath): lossy
      RQ, bounded RX jitter;
    - {b RDMA RC} ([kind] ["rdma_rc"], the InfiniBand-style datapath of
      paper §3), selected by passing a connection cache. Every TX looks up
      its connection in the cache; a miss stalls the descriptor 120 ns while
      connection state is fetched over PCIe (the Figure-1 effect), and
      descriptors still enter the wire in post order. Link-level flow
      control means RX never drops for want of a descriptor. *)

module Conn_cache = Conn_cache

(** What differs across the cluster profiles' NICs. *)
type config = {
  tx_latency_ns : int;  (** descriptor fetch + payload DMA read + pipeline *)
  rx_latency_ns : int;  (** payload DMA write + CQE *)
  rx_jitter_ns : int;  (** uniform extra RX delay in [0, jitter] (PCIe/DMA batching) *)
  rq_size : int;  (** receive descriptors *)
}

val default_config : config

type t

(** Create a NIC endpoint. The caller is responsible for routing received
    packets into it with {!receive} (real deployments steer flows to
    per-Rpc queues by UDP port; our {!Erpc.Nexus} plays that role).
    [conn_cache] selects RDMA RC mode; its [rx_jitter_ns] must be 0.
    [multi_packet_rq] turns on multi-packet RQ descriptors (the owner's
    [Erpc.Config.opts.multi_packet_rq]). Raw-Ethernet mode splits its
    jitter stream off the engine's RNG at create; RC mode draws none. *)
val create :
  ?conn_cache:Conn_cache.t ->
  Sim.Engine.t ->
  Netsim.Network.t ->
  host:int ->
  multi_packet_rq:bool ->
  config ->
  t

(** ["raw_eth"] or ["rdma_rc"]. *)
val kind : t -> string

val rq_size : t -> int

(** Ingress from the network: models the RX DMA pipeline, then either
    drops (no RQ descriptor, raw Ethernet only) or appends to the RX ring. *)
val receive : t -> Netsim.Packet.t -> unit

(** {2 TX path} *)

(** [tx_burst t ~at pkt] posts a packet for transmission (unsignaled) as
    of time [at] (clamped to now): the moment the sender's CPU has built
    it. It enters the wire [tx_latency_ns] (plus any RC cache-miss stall)
    after [at], and no earlier than the descriptor posted before it, then
    queues at the NIC TX port. A descriptor with [at] in the future counts
    in {!tx_pending} and {!flush_time_ns} only from [at] on. *)
val tx_burst : t -> at:Sim.Time.t -> Netsim.Packet.t -> unit

(** Number of TX descriptors posted by now whose DMA has not yet
    completed. *)
val tx_pending : t -> int

(** [flush_time_ns t] is the simulated time needed to flush the TX DMA
    queue right now: time until the last pending DMA completes, plus the
    fixed flush overhead. The caller charges this to its CPU. *)
val flush_time_ns : t -> int

(** {2 RX path} *)

(** Poll up to [max] packets DMA-ed to host memory, invoking the callback
    on each in FIFO order; returns the count polled. *)
val rx_burst : t -> max:int -> (Netsim.Packet.t -> unit) -> int

val rx_ring_depth : t -> int

(** Simulation hook: invoked whenever a packet lands in an empty RX ring. *)
val set_rx_notify : t -> (unit -> unit) -> unit

(** Re-post [n] receive descriptors; returns the modeled CPU cost in ns
    (amortized when multi-packet RQ descriptors are enabled). *)
val replenish_rx : t -> int -> int

(** Drop everything in the RX ring and restore the full descriptor count —
    the restarted driver after a host crash re-posts its RQ from scratch at
    no modeled cost. *)
val reset_rx : t -> unit

(** {2 Statistics} *)

val rx_packets : t -> int
val tx_packets : t -> int

(** Packets dropped for want of a receive descriptor (always 0 in RC
    mode). *)
val rx_dropped : t -> int
