(** eRPC's on-wire packet format over the datagram network.

    [dst_rpc] plays the role of the UDP destination port used for NIC flow
    steering to the right Rpc's receive queue. Data packets carry a
    zero-copy [(data, off, len)] slice of the sender's msgbuf (the "DMA
    read" references the buffer in place), or the same slice over
    {!Netsim.Packet.length_only} when the msgbuf has no storage yet;
    control packets (CR/RFR) carry none. Corruption injected in flight is
    modeled as a per-frame error flag ({!Netsim.Packet.t.corrupted})
    rather than real bit flips, since flipping shared payload bytes would
    corrupt the sender's memory; the observable behavior — the receiver's
    checksum verification fails and the packet is dropped — is
    identical. *)

type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      hdr : Pkthdr.t;
          (** owned by the packet and rewritten in place when a pooled
              packet is reused: read it before the packet is freed, never
              keep it *)
      mutable data : bytes;  (** payload backing store (sender's msgbuf) *)
      mutable off : int;
      mutable len : int;
    }  (** Fields are mutable so pooled packets are rewritten in place. *)

(** Per-endpoint free-list of recycled wire packets. *)
type pool

(** A pool whose packets are interned in [packets] — the network's handle
    table — when the pool makes them, and keep that handle for good. *)
val create_pool : Netsim.Packet.table -> pool

(** Build a wire packet from [pool]: its header fields are the
    [Pkthdr.t] fields of the same names, and its payload is the slice
    [(data, off, len)] of the sender's msgbuf — referenced, never copied;
    control packets pass [Bytes.empty], 0, 0. The wire size is [len] plus
    {!Transport.Cluster.wire_overhead}. In steady state this allocates nothing: the packet
    record, its [Pkt] body and its header come off the free-list and are
    filled in place, and {!Netsim.Packet.free} returns them to it. *)
val make :
  pool ->
  src_host:int ->
  dst_host:int ->
  dst_rpc:int ->
  flow:int ->
  req_type:int ->
  msg_size:int ->
  dest_session:int ->
  pkt_type:Pkthdr.pkt_type ->
  pkt_num:int ->
  req_num:int ->
  token:int ->
  data:bytes ->
  off:int ->
  len:int ->
  Netsim.Packet.t

(** Wire-checksum verification: [false] for packets the network flagged
    {!Netsim.Packet.t.corrupted} in flight. *)
val verify : Netsim.Packet.t -> bool

(** Flow-hash for ECMP: all packets of a session take one path. *)
val flow_hash : src_host:int -> dst_host:int -> sn:int -> int
