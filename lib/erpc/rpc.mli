(** An Rpc endpoint: one user thread's RPC interface (paper §3.1).

    The endpoint is the control plane: it builds the dispatch thread's
    CPU timeline and its device ({!Transport.Iface.t}), runs session
    management, handles failures, invokes request handlers and registers
    its device's [nic.rx_dropped_no_desc] metric. The datapath — the wire
    protocol with go-back-N loss recovery, congestion control, the
    Carousel rate limiter and the event loop — lives in {!Proto}, which
    the endpoint calls directly.
    The "event loop" the paper's user threads run is driven by the
    simulation: any arriving work wakes the loop, which then runs
    activations back-to-back (charging modeled CPU) until idle —
    equivalent to busy polling, without simulating empty polls.

    Guarantees reproduced from the paper:
    - RPCs execute at most once (per-slot request numbers; duplicate and
      reordered packets are dropped);
    - msgbuf ownership: a request/response msgbuf returns to the
      application exactly when its continuation runs, and never while a
      reference might sit in the NIC DMA queue (TX flush on retransmission)
      or the rate limiter (responses dropped while a retransmitted packet
      is wheeled, Appendix C);
    - sessions are limited so that per-session credits can never overflow
      the receive queue: [sessions * credits <= rq_size]. *)

type t

val create : Nexus.t -> rpc_id:int -> t

val nexus : t -> Nexus.t
val cpu : t -> Sim.Cpu.t

(** The endpoint's datapath, selected by [Config.transport], wrapped in
    the {!Shm} intra-host mux when the cluster has a co-located group
    ({!Transport.Cluster.colocate}): packets to a co-located destination
    take the shared-memory rings instead of the NIC. *)
val transport : t -> Transport.Iface.t

(** The endpoint's shared-memory ring state on a cluster with a
    co-located group (the [Mux] case of {!transport}; [None] otherwise);
    exposes serialize/share/guard-fault counters. *)
val shm_endpoint : t -> Shm.endpoint option

(** {2 Sessions} *)

(** Start connecting to a remote Rpc. Raises if the session-credit budget
    [rq_size / credits] is exhausted (paper §4.3.1). Requests may be
    enqueued immediately; they are held until the handshake completes. *)
val create_session :
  t ->
  remote_host:int ->
  remote_rpc_id:int ->
  ?on_connect:((unit, Err.t) result -> unit) ->
  unit ->
  Session.session

val num_sessions : t -> int

(** Tear down a connected client session (frees its credit budget on both
    endpoints). Raises if any request is still outstanding, or if the
    connection handshake has not completed yet. The session reaches
    [Destroyed] once the server acknowledges. *)
val destroy_session : t -> Session.session -> unit

(** {2 Client API} *)

(** Asynchronously issue an RPC on a session. [req]'s current size is the
    request size; [resp] must be able to hold the response. Both msgbufs
    pass to eRPC ownership until [cont] is invoked. *)
val enqueue_request :
  t ->
  Session.session ->
  req_type:int ->
  req:Msgbuf.t ->
  resp:Msgbuf.t ->
  cont:((unit, Err.t) result -> unit) ->
  unit

(** As [enqueue_request], with a completion hook (used by {!Typed} to
    charge response deserialization) that runs on success just before
    [cont], with the filled response, inside the request's traced
    lifetime. *)
val enqueue_request_hooked :
  t ->
  Session.session ->
  req_type:int ->
  req:Msgbuf.t ->
  resp:Msgbuf.t ->
  on_complete:(Msgbuf.t -> unit) ->
  cont:((unit, Err.t) result -> unit) ->
  unit

(** The endpoint's configured [codec_backend]. *)
val codec_backend : t -> Codec.backend

(** Charge one typed encode ([deser:false]) or decode ([deser:true]) of a
    message with [leaves] fields and [bytes] wire bytes to the dispatch
    CPU, priced by the endpoint's cost model, emitting a "codec" trace
    span over the charged interval. [backend] defaults to
    the endpoint's configured backend. Used by {!Typed}. *)
val charge_codec :
  ?backend:Codec.backend -> t -> deser:bool -> leaves:int -> bytes:int -> unit

(** {2 Statistics} *)

(** The endpoint's counters (shared with the protocol core; live — reads
    always see the current values). *)
val stats : t -> Rpc_stats.t

(** Timely rate updates performed across all sessions, for the
    factor-analysis accounting. *)
val cc_updates : t -> int

(** Protocol audit of a quiescent endpoint, built on {!Proto.iter_sessions}:
    one line per client session whose [credits] differ from its
    [credit_limit] (a credit leaked or returned twice), and one per slot
    whose RTO timer is still armed (a timer leak). Empty once every
    request has completed or failed; mid-run, in-flight requests hold
    credits and timers. *)
val audit : t -> string list

(** Install a probe invoked with every per-packet RTT sample (ns) measured
    at this client — the paper's proxy for switch queue length (§6.5). *)
val set_rtt_probe : t -> (int -> unit) -> unit
