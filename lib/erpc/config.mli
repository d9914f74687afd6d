(** eRPC protocol and optimization configuration.

    [opts] are the common-case optimizations of paper §4–5; each is a live
    runtime flag so Table 3's factor analysis can be regenerated by
    toggling them. [cc] holds the congestion-control settings (§5.2). *)

type opts = {
  batched_timestamps : bool;  (** one rdtsc per RX/TX batch, not per packet *)
  timely_bypass : bool;  (** skip rate update when uncongested and RTT < t_low *)
  rate_limiter_bypass : bool;  (** transmit directly when uncongested *)
  multi_packet_rq : bool;
      (** 512-way RQ descriptors; {!Rpc.create} passes it to [Nic.create],
          and no cluster profile holds a copy *)
  preallocated_responses : bool;  (** per-slot MTU-sized response msgbuf *)
  zero_copy_rx : bool;  (** run dispatch handlers on the RX ring buffer *)
  congestion_control : bool;  (** master switch for Timely + rate limiter *)
  cumulative_crs : bool;
      (** one cumulative credit return per {!cr_stride} request packets
          instead of per packet — the §6.4 future-work optimization *)
}

(** Which datapath an {!Rpc} endpoint drives (paper §3): the NIC model's
    lossy raw-Ethernet mode, or its RDMA RC mode (verbs pipeline
    latencies, connection-cache TX stalls, no descriptor drops). The wire
    protocol is identical over both — that is the portability claim this
    seam reproduces. *)
type transport_kind = Raw_eth | Rdma_rc

(** The congestion-control settings experiments and tests vary. Client
    sessions run Timely (§5.2.1); its fixed parameters are constants of
    {!Timely} (and {!min_rate_bps}). *)
type cc = {
  min_rtt_ns : int;  (** base propagation RTT used to normalize gradients *)
  add_rate_bps : float;  (** Timely's additive increment per update (50 Mbps) *)
  samples_per_update : int;
      (** RTT samples per rate computation: Timely computes one update per
          16-64 kB completion event, not per packet (8) *)
}

val default_cc : min_rtt_ns:int -> cc

(** {2 Fixed protocol constants}

    Every endpoint uses the same values; no experiment varies them. *)

(** Largest supported message (8 MB, §6.4). *)
val max_msg_size : int

(** Packets received per RX burst. *)
val rx_batch : int

(** Packets transmitted per TX burst. *)
val tx_batch : int

(** Concurrent requests per session: 8, eRPC's session request window. *)
val req_window : int

(** Request packets acknowledged per cumulative credit return under
    [opts.cumulative_crs]: 4, this model's choice for an optimization the
    paper leaves to future work. *)
val cr_stride : int

(** Floor of Timely's sending rate: 30 Mbps, this model's value, so a
    session never stops transmitting entirely. *)
val min_rate_bps : float

(** Consecutive RTOs without progress before the session is reset and
    in-flight requests fail with [Err.Peer_unreachable] (§4.3). *)
val max_retransmits : int

(** Slot width of the rate limiter's Carousel timing wheel ({!Wheel}). *)
val wheel_slot_ns : int

(** Slots in that wheel: 16 ms of horizon at 1 µs slots. *)
val wheel_num_slots : int

(** Out-of-band session-management message delay. *)
val sm_latency_ns : int

(** Node-failure detection timeout. *)
val sm_failure_timeout_ns : int

type t = {
  transport : transport_kind;  (** datapath the endpoint runs over *)
  session_credits : int;
  rto_ns : int;  (** retransmission timeout (5 ms, §5.2.3) *)
  opts : opts;
  cc : cc;
  codec_backend : Codec.backend;
      (** wire format typed RPCs use by default (see {!Typed}) *)
  shm_mode : Shm.mode;  (** ring handoff discipline (default [Auto]) *)
  shm_slots : int;  (** ring capacity before senders stall (default 512) *)
  shm_hop_ns : int;
      (** one cache-coherent interconnect crossing (default 150 ns) *)
}

(** Config derived from a cluster profile: credits = BDP/MTU and the Timely
    min RTT from the profile. The profile, not the config, holds the MTU
    packets are cut by ([Transport.Cluster.t.mtu]). *)
val of_cluster : ?credits:int -> Transport.Cluster.t -> t
