(** Intra-host shared-memory transport (MemRPC-style).

    The third {!Transport.Iface.S} implementation: co-located endpoints
    exchange packets through fixed-slot SPSC message rings over the
    memory interconnect — no NIC, no wire serialization, no switch
    traversal. Each endpoint is a *mux* wrapping the configured wire
    transport: packets to co-located destinations take the ring path,
    everything else the wire, so one Rpc serves mixed local/remote
    session sets with a single transport handle.

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

(** What the ring path needs to know about a packet: destination Rpc id
    and the payload slice (for copy/seal). *)
type view = { dst_rpc : int; data : bytes; off : int; len : int }

(** Injected by the fabric — this library cannot see eRPC's packet body
    type. [view] returns [None] for bodies the ring path cannot carry
    (those fall back to the wire); [set_payload] retargets the payload
    at a serialized private copy (offset 0, same length). *)
type hooks = {
  view : Netsim.Packet.t -> view option;
  set_payload : Netsim.Packet.t -> bytes -> unit;
}

(** One endpoint's ring state; also the [Impl.t] packed into the
    transport handle. Exposed for {!stats}. *)
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

(** Ring-path counters (wire-path counters live on the inner transport). *)
type stats = {
  shm_tx : int;
  shm_rx : int;
  shared_tx : int;  (** messages handed off by pointer *)
  serialized_tx : int;  (** messages copied into the ring *)
  guard_faults : int;  (** ownership-transfer violations detected *)
  ring_stalls : int;  (** sends that found the destination ring full *)
}

val stats : endpoint -> stats

(** [create engine ~hub ~host ~rpc_id ~inner ~colocated ~charge ~mode
    ~slots ~hop_ns ~costs ()] registers the endpoint's rings in [hub]
    and returns the endpoint plus its packed transport. [colocated]
    answers per destination host; [charge] books sender-side CPU work
    (already scaled) on the owning dispatch thread; [slots] is the ring
    capacity before senders stall; [hop_ns] the interconnect hop. *)
val create :
  Sim.Engine.t ->
  hub:hub ->
  host:int ->
  rpc_id:int ->
  inner:Transport.Iface.t ->
  colocated:(int -> bool) ->
  charge:(int -> unit) ->
  mode:mode ->
  slots:int ->
  hop_ns:int ->
  costs:costs ->
  unit ->
  endpoint * Transport.Iface.t
