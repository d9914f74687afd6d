(** An egress port: FIFO queue draining onto a link.

    A port serializes packets at the link rate and delivers each to [sink]
    after serialization plus [extra_delay_ns] (propagation + fixed
    receiver-side latency, such as the cut-through latency of the switch
    a link feeds; see {!Switch}). If the port is backed by a {!Buffer_pool},
    dynamic-threshold admission applies and rejected packets are dropped;
    an unpooled port (host NIC TX) queues without bound — senders are
    expected to self-limit, which is exactly what eRPC's credit scheme
    does. *)

type t

(** RED-style ECN marking thresholds: packets are marked with probability
    rising from 0 at [kmin_bytes] to [pmax] at [kmax_bytes] (and always
    beyond), based on the instantaneous queue — DCQCN's switch-side
    configuration. *)
type ecn_config = { kmin_bytes : int; kmax_bytes : int; pmax : float }

(** [packets] is the network's packet-handle table: the port's queue and
    events carry handles from it. *)
val create :
  Sim.Engine.t ->
  packets:Packet.table ->
  name:string ->
  rate_gbps:float ->
  extra_delay_ns:int ->
  ?pool:Buffer_pool.t ->
  ?ecn:ecn_config ->
  ?lossless:bool ->
  sink:(Packet.t -> unit) ->
  unit ->
  t

(** Enqueue a packet now. Returns [false] if the packet was dropped by
    buffer admission. *)
val send : t -> Packet.t -> bool

val name : t -> string
val queued_bytes : t -> int

(** Queueing delay a packet enqueued now would experience before its own
    serialization starts. *)
val queue_delay : t -> Sim.Time.t

val rate_gbps : t -> float

(** Statistics *)

val tx_packets : t -> int
val tx_bytes : t -> int
val dropped_packets : t -> int
val dropped_bytes : t -> int

(** Times PFC saved a packet that DT admission would have dropped
    (lossless ports only). *)
val pause_events : t -> int
val reset_stats : t -> unit
