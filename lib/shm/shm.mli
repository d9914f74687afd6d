(** Intra-host shared-memory transport (MemRPC-style).

    The second {!Transport.Iface.S} implementation (the [Mux] case of
    {!Transport.Iface.t}): co-located endpoints exchange packets through
    fixed-slot SPSC message rings over the memory interconnect — no NIC,
    no wire serialization, no switch traversal. Each endpoint is a *mux*
    wrapping the endpoint's wire device: packets to co-located
    destinations take the ring path, everything else the {!Nic}, so one
    Rpc serves mixed local/remote session sets with a single transport
    handle.

    Two handoff disciplines are modeled: *serialize* (copy the payload
    into the ring slot, charged per byte) and *share* (pointer-passing
    zero-copy at a flat per-descriptor cost, plus seal-on-send /
    unseal-on-receive guards and an ownership-transfer check — a sender
    mutating an in-flight shared buffer is detected deterministically
    and the packet delivered marked corrupted). [Auto] picks per message
    whichever is modeled cheaper, so the serialize-vs-share crossover
    emerges from the cost model. *)

(** Handoff discipline for the ring path. *)
type mode = Serialize | Share | Auto

(** Modeled CPU charges, pre-scaled by the owner's cost model
    (see {!Erpc.Cost_model.shm_costs}). *)
type costs = {
  serialize_ns : int -> int;
      (** claim + publish a slot and copy n payload bytes into it *)
  share_tx_ns : int;  (** claim + publish a pointer descriptor + seal *)
  share_rx_ns : int;  (** unseal + ownership-transfer check *)
  ring_post_ns : int;  (** re-arm one consumed ring slot *)
}

(** [Auto]'s rule: share a [len]-byte payload iff the flat share cost
    (both sides) does not exceed copying it. *)
val prefers_share : costs -> int -> bool

(** What the ring path needs to know about a packet: destination Rpc id
    and the payload slice (for copy/seal). A slice over
    {!Netsim.Packet.length_only} seals as [len] zero bytes and is not
    copied by the serialize path. *)
type view = { dst_rpc : int; data : bytes; off : int; len : int }

(** Injected by the fabric — this library cannot see eRPC's packet body
    type. [view] returns [None] for bodies the ring path cannot carry
    (those fall back to the wire); [set_payload] retargets the payload
    at a serialized private copy (offset 0, same length). *)
type hooks = {
  view : Netsim.Packet.t -> view option;
  set_payload : Netsim.Packet.t -> bytes -> unit;
}

(** One endpoint's ring state and its wrapped wire device. *)
type endpoint

(** The per-fabric shared-memory segment directory: maps
    [(host, rpc_id)] to the owning endpoint's rings. *)
type hub

(** [packets] is the fabric network's handle table: ring deliveries and
    RX rings carry packet handles from it. *)
val create_hub : hooks:hooks -> packets:Netsim.Packet.table -> unit -> hub

(** Install the liveness gate: ring deliveries into a host for which it
    returns [false] vanish, like network deliveries into a crashed
    process. *)
val set_alive : hub -> (int -> bool) -> unit

(** Ring-path counters (wire-path counters live on the inner device). *)
type stats = {
  shm_tx : int;
  shm_rx : int;
  shared_tx : int;  (** messages handed off by pointer *)
  serialized_tx : int;  (** messages copied into the ring *)
  guard_faults : int;  (** ownership-transfer violations detected *)
  ring_stalls : int;  (** sends that found the destination ring full *)
}

val stats : endpoint -> stats

(** [create engine ~hub ~host ~rpc_id ~inner ~colocated ~cpu ~mode ~slots
    ~hop_ns ~costs ()] registers the endpoint's rings in [hub]. [inner]
    carries remote traffic; [colocated] answers per destination host;
    [cpu], the owning dispatch thread, pays sender-side ring work
    (already scaled); [slots] is the ring capacity before senders stall;
    [hop_ns] the interconnect hop. *)
val create :
  Sim.Engine.t ->
  hub:hub ->
  host:int ->
  rpc_id:int ->
  inner:Nic.t ->
  colocated:(int -> bool) ->
  cpu:Sim.Cpu.t ->
  mode:mode ->
  slots:int ->
  hop_ns:int ->
  costs:costs ->
  unit ->
  endpoint

(** {2 {!Transport.Iface.S} over the mux}

    Counters add the ring path to [inner]'s; only [inner] drops, and
    network ingress ([receive]) is [inner]'s. *)

val kind : endpoint -> string
val rq_size : endpoint -> int
val tx_burst : endpoint -> at:Sim.Time.t -> Netsim.Packet.t -> unit
val tx_pending : endpoint -> int
val flush_time_ns : endpoint -> int
val rx_burst : endpoint -> max:int -> (Netsim.Packet.t -> unit) -> int
val rx_ring_depth : endpoint -> int
val set_rx_notify : endpoint -> (unit -> unit) -> unit
val replenish_rx : endpoint -> int -> int
val receive : endpoint -> Netsim.Packet.t -> unit
val reset_rx : endpoint -> unit
val rx_packets : endpoint -> int
val tx_packets : endpoint -> int
val rx_dropped : endpoint -> int
