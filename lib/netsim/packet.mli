(** Network packets, and the handle table that lets queues and events
    carry a packet as an int.

    The body is an extensible variant so higher layers (eRPC, RDMA) attach
    their own typed contents without the network caring; [size_bytes] is the
    on-wire size used for serialization and buffering.

    Packets are reference-counted so they can be recycled through a
    free-list instead of allocated per send (see [Erpc.Wire.create_pool]):
    the creator hands out one reference, anything that delivers the same
    packet twice (duplicate injection) takes another with {!retain}, and
    every terminal point of the datapath — protocol RX, or any drop —
    calls {!free}. Packets built by {!make} are unpooled: {!free} on them
    does nothing beyond the count and returning their handle, so generic
    network code may free unconditionally. *)

type body = ..
type body += Empty

type t = {
  mutable src : int;  (** source host id *)
  mutable dst : int;  (** destination host id *)
  mutable size_bytes : int;  (** on-wire size including all headers *)
  mutable flow_hash : int;  (** ECMP key: packets of a flow take the same path *)
  mutable body : body;
  mutable sent_at : Sim.Time.t;  (** stamped by the network on first hop *)
  mutable corrupted : bool;
      (** physical-layer bit errors; receivers must treat the packet as
          failing its wire checksum *)
  mutable trace_id : int;
      (** 0 = untraced; otherwise a trace-scoped id stamped by the sender so
          NIC/port/delivery trace events can be joined back to the
          protocol-level packet description *)
  mutable refs : int;  (** live references; {!free} recycles at zero *)
  mutable release : t -> unit;
      (** recycler invoked when [refs] hits zero; no-op for unpooled
          packets *)
  mutable handle : int;
      (** this packet's handle in a {!table}, or -1 if none holds it;
          written only by {!intern} and the table *)
}

val make : src:int -> dst:int -> size_bytes:int -> flow_hash:int -> body -> t

(** The payload store of bytes nobody has written: a packet body whose
    slice [(data, off, len)] has [data == length_only] carries [len]
    bytes that read as zeros, with no host memory behind them. It is
    empty, so any [Bytes] access to such a slice with [len > 0] raises
    rather than reading something else; test for it with [==]. *)
val length_only : bytes

(** Reset transit state ([sent_at], [corrupted], [trace_id]) and
    addressing on a recycled packet; sets [refs] to 1. The caller rewrites
    the body contents itself. *)
val reinit : t -> src:int -> dst:int -> size_bytes:int -> flow_hash:int -> unit

(** Take an extra reference (e.g. before delivering a duplicate). *)
val retain : t -> unit

(** Drop one reference; at zero the packet returns to its pool, or gives
    back its handle if it is unpooled. *)
val free : t -> unit

(** The default [release]: does nothing (unpooled packets). *)
val no_release : t -> unit

(** {2 Packet handles}

    Queues and events carry a packet in flight as an int handle from a
    per-network table, so they store no pointer and pay no GC write
    barrier. A pooled packet (one whose [release] is a pool's) is
    interned once, when its pool creates it, and keeps its handle across
    reuse: the pool's free-list is a stack of handles. An unpooled packet
    is interned on its way in and gives its handle back at its last
    {!free}. *)

type table

val create_table : unit -> table

(** [intern tbl pkt] is [pkt]'s handle in [tbl], interning it first if it
    has none. Raises [Invalid_argument] if [pkt] holds a handle of another
    table. *)
val intern : table -> t -> int

(** The packet holding a handle. *)
val get : table -> int -> t

(** Handles held now. *)
val live_handles : table -> int

(** Handles the table has room for; it doubles when full and never
    shrinks. *)
val table_capacity : table -> int
