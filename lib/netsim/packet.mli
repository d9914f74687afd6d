(** Network packets.

    The body is an extensible variant so higher layers (eRPC, RDMA) attach
    their own typed contents without the network caring; [size_bytes] is the
    on-wire size used for serialization and buffering.

    Packets are reference-counted so they can be recycled through a
    free-list instead of allocated per send (see [Erpc.Wire.create_pool]):
    the creator hands out one reference, anything that delivers the same
    packet twice (duplicate injection) takes another with {!retain}, and
    every terminal point of the datapath — protocol RX, or any drop —
    calls {!free}. Packets built by {!make} are unpooled: {!free} on them
    is a no-op beyond the count, so generic network code may free
    unconditionally. *)

type body = ..
type body += Empty

type t = {
  mutable src : int;  (** source host id *)
  mutable dst : int;  (** destination host id *)
  mutable size_bytes : int;  (** on-wire size including all headers *)
  mutable flow_hash : int;  (** ECMP key: packets of a flow take the same path *)
  mutable body : body;
  mutable sent_at : Sim.Time.t;  (** stamped by the network on first hop *)
  mutable ecn : bool;  (** congestion-experienced mark (RED/ECN at switches) *)
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
  mutable pool_next : t;  (** intrusive free-list link ([nil]-terminated) *)
}

(** Sentinel packet: free-list terminator and [Ring] dummy. Never enters
    the network. *)
val nil : t

val make : src:int -> dst:int -> size_bytes:int -> flow_hash:int -> body -> t

(** Reset transit state ([sent_at], [ecn], [corrupted], [trace_id]) and
    addressing on a recycled packet; sets [refs] to 1. The caller rewrites
    the body contents itself. *)
val reinit : t -> src:int -> dst:int -> size_bytes:int -> flow_hash:int -> unit

(** Take an extra reference (e.g. before delivering a duplicate). *)
val retain : t -> unit

(** Drop one reference; at zero the packet returns to its pool. Safe on
    unpooled packets and on [nil]. *)
val free : t -> unit

(** The default [release]: does nothing (unpooled packets). *)
val no_release : t -> unit
