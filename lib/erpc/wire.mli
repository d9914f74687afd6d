(** eRPC's on-wire packet format over the datagram network.

    [dst_rpc] plays the role of the UDP destination port used for NIC flow
    steering to the right Rpc's receive queue. Data packets carry a
    zero-copy [(data, off, len)] slice of the sender's msgbuf (the "DMA
    read" references the buffer in place); control packets (CR/RFR) carry
    none. Corruption injected in flight is modeled as a per-frame error
    flag ({!Netsim.Packet.t.corrupted}) rather than real bit flips, since
    flipping shared payload bytes would corrupt the sender's memory; the
    observable behavior — the receiver's checksum verification fails and
    the packet is dropped — is identical. *)

type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      mutable hdr : Pkthdr.t;
      mutable data : bytes;  (** payload backing store (sender's msgbuf) *)
      mutable off : int;
      mutable len : int;
    }  (** Fields are mutable so pooled packets are rewritten in place. *)

(** Per-endpoint free-list of recycled wire packets. In steady state
    {!make} with a pool allocates nothing: the packet record and its [Pkt]
    body are reused. *)
type pool

val create_pool : unit -> pool

(** Build a wire packet. [payload], when given, is referenced as a
    [(bytes, off, len)] slice — never copied. The wire size is the payload
    length plus [wire_overhead]. With [?pool], the record is drawn from
    the free-list when possible and returns to it on {!Netsim.Packet.free}. *)
val make :
  ?pool:pool ->
  src_host:int ->
  dst_host:int ->
  dst_rpc:int ->
  wire_overhead:int ->
  flow:int ->
  hdr:Pkthdr.t ->
  ?payload:bytes * int * int ->
  unit ->
  Netsim.Packet.t

(** Wire-checksum verification: [false] for packets mangled in flight. *)
val verify : Netsim.Packet.t -> bool

(** Corrupt the frame so checksum verification fails. [bit] is accepted
    for injector compatibility; which bit flips does not change the
    modeled outcome. This is the corrupter the fault injector installs via
    {!Netsim.Network.set_corrupter}. *)
val corrupt : ?bit:int -> Netsim.Packet.t -> unit

(** Flow-hash for ECMP: all packets of a session take one path. *)
val flow_hash : src_host:int -> dst_host:int -> sn:int -> int
