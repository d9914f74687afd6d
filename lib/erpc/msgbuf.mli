(** DMA-capable message buffers (paper §4.2).

    A msgbuf holds one possibly multi-packet message with a contiguous data
    region, so applications can treat it as an opaque buffer. Ownership is
    tracked explicitly to enforce the paper's zero-copy invariant: once a
    request msgbuf is enqueued, the application must not touch it until its
    continuation runs — violations raise.

    Buffers either own their storage ([alloc]) or alias a received packet's
    bytes ([view], the zero-copy RX path for single-packet requests).

    Storage is made on first access: a buffer gets host bytes the first
    time the application writes or reads it (or calls {!unsafe_bytes}),
    and its unwritten bytes read as zeros. Until then it holds only its
    length, packets cut from it carry {!Netsim.Packet.length_only}, and
    copies between such buffers copy nothing. A payload the simulation
    only measures, never reads, thus costs no host memory. *)

type ownership =
  | Owned_by_app  (** application may read/write/re-enqueue *)
  | Owned_by_erpc  (** in flight: referenced by TX queues or handlers *)

type t

(** Allocate an app-owned buffer able to hold [max_size] data bytes, all
    zero. [data_size] starts at [max_size]. *)
val alloc : max_size:int -> t

(** A zero-copy view over [len] bytes of [bytes] starting at [off]. Views
    are eRPC-owned (they alias the RX ring). A view over
    {!Netsim.Packet.length_only} is [len] zero bytes without storage. *)
val view : bytes -> off:int -> len:int -> t

val max_size : t -> int
val size : t -> int

(** Shrink/grow the message size within [max_size]. Only the owner may
    resize; raises if eRPC-owned. *)
val resize : t -> int -> unit

val owner : t -> ownership
val is_view : t -> bool

(** Used by the library at enqueue/completion boundaries. Raise on invalid
    transitions (double enqueue, completion of app-owned buffer). *)
val take_for_erpc : t -> unit

val return_to_app : t -> unit

(** Number of packets for this message at the given MTU (>= 1; a 0-byte
    message still takes one packet). *)
val num_pkts : t -> mtu:int -> int

(** {2 Data access} — bounds-checked; reading/writing while eRPC-owned is a
    programming error and raises. *)

val write_string : t -> off:int -> string -> unit
val read_string : t -> off:int -> len:int -> string
val set_u32 : t -> off:int -> int -> unit
val get_u32 : t -> off:int -> int
val set_u64 : t -> off:int -> int -> unit
val get_u64 : t -> off:int -> int

(** Raw access to the buffer's storage, made now if it has none (no
    ownership check). *)
val unsafe_bytes : t -> bytes

(** The storage for packetization, with [unsafe_offset]: the buffer's
    bytes, or {!Netsim.Packet.length_only} if it has none yet. Makes no
    storage. *)
val payload : t -> bytes

val unsafe_offset : t -> int

(** Library-internal resize (e.g. sizing the response msgbuf when response
    packet 0 reveals the message size). *)
val unsafe_set_size : t -> int -> unit

(** Library-internal copy of received packet data into a buffer. A
    {!Netsim.Packet.length_only} source copies zeros: nothing into a
    buffer without storage. *)
val blit_from_bytes : bytes -> src_off:int -> t -> dst_off:int -> len:int -> unit

(** [blit ~src ~src_off ~dst ~dst_off ~len] copies message data without
    ownership checks (library internal). It makes no storage for [src],
    and none for [dst] while [src] has none. *)
val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
