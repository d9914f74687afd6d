(** Per-process context (paper §3): request handler registry, background
    worker threads for long-running handlers, per-host packet demux, and
    the session-management endpoint.

    One Nexus exists per simulated host process; each of its {!Rpc}s owns a
    dispatch thread and a NIC queue pair. Incoming packets are steered to
    the right Rpc by the [dst_rpc] field (modeling NIC flow steering by
    UDP port). *)

type handler_mode =
  | Dispatch  (** run in the dispatch thread: handlers up to a few 100 ns *)
  | Worker  (** run in a background worker thread: long handlers *)

type handler = Req_handle.t -> unit

type t

val create : Fabric.t -> host:int -> ?num_workers:int -> unit -> t

val fabric : t -> Fabric.t
val host : t -> int
val dead : t -> bool

(** Register a handler for [req_type]. Registering twice raises. *)
val register_handler : t -> req_type:int -> mode:handler_mode -> handler -> unit

val handler : t -> int -> (handler_mode * handler) option

(** {2 Internal interfaces used by Rpc} *)

(** Steer packets with [dst_rpc = rpc_id] into [transport], the Rpc's
    device ({!Transport.Iface.receive}). Routes live in an array indexed
    by Rpc id (one small id per thread), so per-packet dispatch does no
    hashing. Packets for an unregistered id are freed. A negative id, or
    registering an id twice, raises. *)
val register_rx : t -> rpc_id:int -> Transport.Iface.t -> unit

(** The process state every {!Proto} of this host reads: liveness and the
    request types registered in [Dispatch] mode. *)
val process : t -> Proto.process

(** Run [job] on the least-loaded worker thread. The job receives the
    worker's CPU to charge its modeled compute time; jobs on one worker are
    serialized. *)
val submit_worker : t -> (Sim.Cpu.t -> unit) -> unit

