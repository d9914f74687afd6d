(** An output-queued switch with a shared dynamic buffer.

    The switch only routes and holds the buffer: {!forward} picks an
    egress {!Port} by destination (with ECMP hashing across equal-cost
    ports) and enqueues the packet there. All egress ports share the
    switch's {!Buffer_pool}.

    The fixed cut-through latency is not modelled here. It sits on every
    link that feeds a switch: the feeding port's flight time is the cable
    plus the switch latency, and its arrival calls {!forward}. Every
    feeding link has one constant delay, so packets reach [forward] in the
    order they would have left the switch's ingress, and one event covers
    the cable and the traversal. *)

type t

val create : Sim.Engine.t -> name:string -> buffer_bytes:int -> alpha:float -> t
val name : t -> string
val pool : t -> Buffer_pool.t

(** [add_port t port] registers an egress port and returns its index. *)
val add_port : t -> Port.t -> int

val port : t -> int -> Port.t

(** The egress ports, in {!add_port} order. *)
val ports : t -> Port.t list

(** [set_route t ~dst ~ports] routes packets for host [dst] to one of
    [ports] (ECMP by flow hash). *)
val set_route : t -> dst:int -> ports:int array -> unit

(** Route a packet that has crossed the switch to its egress port now.
    Raises [Invalid_argument] if no route is set for its destination. *)
val forward : t -> Packet.t -> unit

(** Packets dropped at this switch (buffer admission failures). *)
val dropped_packets : t -> int

(** Conservation audit: the pool's occupancy equals the bytes its ports
    queue. Returns one line per violation. *)
val audit : t -> string list
