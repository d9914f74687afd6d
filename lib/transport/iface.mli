(** The transport seam (paper §3, "transport layer").

    eRPC's portability rests on a narrow transport API: the same protocol
    and dispatch code runs over InfiniBand, RoCE and DPDK raw Ethernet
    because each datapath only has to provide packet TX/RX, a flush
    primitive, and the receive-descriptor count the credit system is sized
    against. [S] is that API; the wire protocol ({!Erpc.Proto}) is written
    against [t] alone and never names a concrete device.

    eRPC picks its transport at compile time (the C++ [Rpc<TTr>]
    template), so there are no function pointers here either: [t] is the
    closed sum of the two devices, and each function below is one match
    on it, a direct call into the device.
    Both devices are checked against [S] at compile time:
    - [Wire]: {!Nic}, the one wire device, in two modes — lossy raw
      Ethernet (pre-posted RQ descriptors, drops on exhaustion, RX
      jitter) and RDMA RC (no descriptor drops under link-level flow
      control, but TX stalls on NIC connection-cache misses);
    - [Mux]: {!Shm}, the intra-host shared-memory path for co-located
      endpoints (SPSC message rings over the memory interconnect,
      serialize-vs-share handoff with seal/unseal guards), which muxes
      over its own [Nic] for remote destinations. *)

module type S = sig
  type t

  (** Short transport name for diagnostics ("raw_eth", "rdma_rc", "shm"). *)
  val kind : t -> string

  (** Receive-descriptor budget: sessions are limited so that
      [sessions * credits <= rq_size] can never overflow the RQ (§4.3.1). *)
  val rq_size : t -> int

  (** [tx_burst t ~at pkt] posts one packet for transmission (unsignaled
      descriptor) as of time [at], clamped to now: the moment the
      sender's CPU has built it. *)
  val tx_burst : t -> at:Sim.Time.t -> Netsim.Packet.t -> unit

  (** TX descriptors whose DMA has not completed yet. *)
  val tx_pending : t -> int

  (** Simulated time to flush the TX DMA queue now (used on retransmission
      and node failure, §4.2.2); the caller charges it to its CPU. *)
  val flush_time_ns : t -> int

  (** Poll up to [max] packets from the RX ring, invoking the callback on
      each in FIFO order; returns the count. Callback iteration keeps the
      hot RX path list-free. *)
  val rx_burst : t -> max:int -> (Netsim.Packet.t -> unit) -> int

  val rx_ring_depth : t -> int

  (** Simulation stand-in for busy polling: invoked when a packet lands in
      an empty RX ring. *)
  val set_rx_notify : t -> (unit -> unit) -> unit

  (** Re-post [n] receive descriptors; returns the modeled CPU cost (ns). *)
  val replenish_rx : t -> int -> int

  (** Ingress from the network (the owning endpoint's flow-steering hook). *)
  val receive : t -> Netsim.Packet.t -> unit

  (** Drop the RX ring and restore full descriptor count (host restart). *)
  val reset_rx : t -> unit

  val rx_packets : t -> int
  val tx_packets : t -> int

  (** Packets dropped for want of a receive descriptor (always 0 in RDMA
      RC mode and on the shm ring path). *)
  val rx_dropped : t -> int
end

(** An endpoint's datapath. *)
type t = Wire of Nic.t | Mux of Shm.endpoint

include S with type t := t
