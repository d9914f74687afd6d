(** An egress port: FIFO queue draining onto a link.

    A port serializes packets at the link rate and delivers each to [sink]
    after serialization plus [extra_delay_ns] (propagation + fixed
    receiver-side latency, such as the cut-through latency of the switch
    a link feeds; see {!Switch}). If the port is backed by a {!Buffer_pool},
    dynamic-threshold admission applies and rejected packets are dropped;
    an unpooled port (host NIC TX) queues without bound — senders are
    expected to self-limit, which is exactly what eRPC's credit scheme
    does.

    The port is a closed-form FIFO server. On admission at [now] it
    computes the packet's departure, [max now busy_until +
    serialization], and posts the packet's arrival at the far end
    directly: one engine event per packet hop, in the ["netsim.link"]
    layer. The queue is a ring of packed departure times and sizes; its
    byte count, the transmit counters and the pool's occupancy are
    settled from the ring lazily. An admission at [T] settles departures
    before [T], so a packet departing at [T] still counts as queued;
    readers ({!queued_bytes}, {!tx_packets}, {!tx_bytes}, the
    [port.tx_pkts] metric and {!audit}) count departures through [T]
    without consuming the ones at [T]. With tracing on, a departure's queue sample is emitted when it
    settles, stamped with its departure time, and carries [queued_bytes]
    only: by then the shared pool may hold later admissions. Every read
    of the trace settles the port first ({!Obs.Trace.on_read}), so a
    written or digested trace holds every departure before [now]. *)

type t

(** [packets] is the network's packet-handle table: the port's queue and
    events carry handles from it. *)
val create :
  Sim.Engine.t ->
  packets:Packet.table ->
  name:string ->
  rate_gbps:float ->
  extra_delay_ns:int ->
  ?pool:Buffer_pool.t ->
  ?lossless:bool ->
  sink:(Packet.t -> unit) ->
  unit ->
  t

(** Enqueue a packet now. Returns [false] if the packet was dropped by
    buffer admission. *)
val send : t -> Packet.t -> bool

val name : t -> string

(** The buffer pool the port admits into, if any. *)
val pool : t -> Buffer_pool.t option

(** Bytes admitted and not yet departed by now. *)
val queued_bytes : t -> int

(** Queueing delay a packet enqueued now would experience before its own
    serialization starts. *)
val queue_delay : t -> Sim.Time.t

(** Statistics *)

val tx_packets : t -> int
val tx_bytes : t -> int
val dropped_packets : t -> int
val dropped_bytes : t -> int

(** Times PFC saved a packet that DT admission would have dropped
    (lossless ports only). *)
val pause_events : t -> int

(** Conservation audit: admitted = departed + queued, in packets and in
    bytes; the queued bytes are the sum of the queue; departures leave in
    order. Returns one line per violation (none on a correct port). *)
val audit : t -> string list
