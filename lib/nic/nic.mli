(** Userspace-NIC model: the packet I/O device an {!Erpc.Rpc} endpoint owns.

    Models the mechanisms eRPC's design depends on (§4.1, Appendix A):

    - a TX queue whose descriptors are {e unsignaled}: the host never learns
      when DMA completes, except by an explicit [flush] (the paper's ~2 µs
      TX-queue flush used on retransmission and node failure);
    - an RX queue (RQ) of pre-posted descriptors: an arriving packet with no
      available descriptor is dropped, which is why eRPC sizes session
      credits against [rq_size];
    - multi-packet RQ descriptors: with the optimization on, descriptor
      replenishment costs CPU once per [multi_packet_rq_stride] packets
      instead of per packet (the CPU charge is made by the caller via
      {!replenish_cost_ns});
    - an RX ring polled by the owner; a simulation-only [rx_notify] hook
      stands in for busy polling and lets the owner schedule its event loop
      activation.

    Fixed [tx_latency_ns]/[rx_latency_ns] model DMA + NIC processing and are
    part of the ~850 ns per-host latency adder the paper measures (§6.1). *)

type config = {
  tx_latency_ns : int;  (** descriptor fetch + payload DMA read + pipeline *)
  rx_latency_ns : int;  (** payload DMA write + CQE *)
  rx_jitter_ns : int;  (** uniform extra RX delay in [0, jitter] (PCIe/DMA batching) *)
  tx_flush_ns : int;  (** extra cost of a TX DMA queue flush (~2 µs) *)
  rq_size : int;  (** receive descriptors *)
  multi_packet_rq : bool;
  multi_packet_rq_stride : int;  (** packet buffers per RQ descriptor (512) *)
  rq_replenish_unit_ns : int;  (** CPU cost of re-posting one descriptor *)
}

val default_config : config

type t

(** Create a NIC endpoint. The caller is responsible for routing received
    packets into it with {!receive} (real deployments steer flows to
    per-Rpc queues by UDP port; our {!Erpc.Nexus} plays that role). *)
val create : Sim.Engine.t -> Netsim.Network.t -> host:int -> config -> t

val host : t -> int
val config : t -> config

(** Ingress from the network: models the RX DMA pipeline, then either
    drops (no RQ descriptor) or appends to the RX ring. *)
val receive : t -> Netsim.Packet.t -> unit

(** {2 TX path} *)

(** Post a packet for transmission (unsignaled). It enters the wire after
    [tx_latency_ns] plus the NIC TX port's own queueing. *)
val post_send : t -> Netsim.Packet.t -> unit

(** Number of TX descriptors whose DMA has not yet completed. *)
val tx_pending : t -> int

(** [flush_time_ns t] is the simulated time needed to flush the TX DMA
    queue right now: time until the last pending DMA completes, plus the
    fixed flush overhead. The caller charges this to its CPU. *)
val flush_time_ns : t -> int

(** {2 RX path} *)

(** Poll up to [max] packets DMA-ed to host memory, invoking the callback
    on each in FIFO order; returns the count polled. *)
val poll_rx : t -> max:int -> (Netsim.Packet.t -> unit) -> int

val rx_ring_depth : t -> int

(** Simulation hook: invoked whenever a packet lands in an empty RX ring. *)
val set_rx_notify : t -> (unit -> unit) -> unit

(** Re-post [n] receive descriptors; returns the modeled CPU cost in ns
    (amortized when multi-packet RQ descriptors are enabled). *)
val replenish_rq : t -> int -> int

(** Drop everything in the RX ring and restore the full descriptor count —
    the restarted driver after a host crash re-posts its RQ from scratch at
    no modeled cost. *)
val clear_rx : t -> unit

(** {2 Statistics} *)

val rx_packets : t -> int
val tx_packets : t -> int
val rx_dropped_no_desc : t -> int
