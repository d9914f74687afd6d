(** The dispatch thread's datapath (paper §4): the client-driven
    request/response state machine — request slots, session credits,
    go-back-N retransmission with TX flush, CR/RFR control packets,
    at-most-once delivery — and what it needs at every packet: the
    dispatch CPU timeline, timestamp batching (§5.2.2), congestion
    control, the Carousel rate limiter and the event loop.

    Invariants:
    - every call is direct: to its own state, and to its device through
      the closed sum {!Transport.Iface.t};
    - it never runs a handler itself: a fully received request goes to
      the one upcall, set by {!Rpc} (module order puts {!Nexus} and its
      handlers after this module);
    - msgbuf ownership transfers exactly as in the monolithic
      implementation (returned to the application when the continuation
      runs, flushed from the DMA queue on retransmission). *)

type t

(** Tables keyed by request type, probed on every request: monomorphic,
    with an identity hash. *)
module Int_tbl : Hashtbl.S with type key = int

(** What the protocol reads of its host process, written by {!Nexus} and
    shared by every Rpc of the host: [dead] gates the event loop and RTO
    timers; [dispatch_types] holds the request types whose handler may
    run on the RX ring buffer (dispatch mode, zero-copy RX §4.2.3). *)
type process = { mutable dead : bool; dispatch_types : unit Int_tbl.t }

(** [mtu] is the cluster profile's, the size packets are cut by; [cpu] is
    the dispatch thread's timeline; [packets] the network's
    packet-handle table; [tid] the owning endpoint's trace thread track
    (0 when tracing is disabled). Registers the event loop's engine
    handlers and the device's RX notification. *)
val create :
  engine:Sim.Engine.t ->
  host:int ->
  cfg:Config.t ->
  mtu:int ->
  cost:Cost_model.t ->
  cpu:Sim.Cpu.t ->
  transport:Transport.Iface.t ->
  process:process ->
  packets:Netsim.Packet.table ->
  stats:Rpc_stats.t ->
  tid:int ->
  t

(** Set the one upcall, [invoke slot srv req_type], which runs the
    handler of a fully received request. Set once, by {!Rpc.create}. *)
val set_invoke : t -> (Session.sslot -> Session.server_info -> int -> unit) -> unit

(** Install a probe invoked with every per-packet RTT sample (ns). *)
val set_rtt_probe : t -> (int -> unit) -> unit

(** Charge scaled CPU nanoseconds to [cpu] (the dispatch thread's or a
    worker's). *)
val charge : t -> Sim.Cpu.t -> int -> unit

(** {2 Requests and responses} *)

(** Issue an RPC (see {!Rpc.enqueue_request}), with a completion hook
    that runs on success just before [cont], with the filled response
    msgbuf — see {!Session.req_args}. *)
val enqueue_request_hooked :
  t ->
  Session.session ->
  req_type:int ->
  req:Msgbuf.t ->
  resp:Msgbuf.t ->
  on_complete:(Msgbuf.t -> unit) ->
  cont:((unit, Err.t) result -> unit) ->
  unit

(** {2 Request-handle support}

    What {!Req_handle} does for a handler running on [cpu]: the dispatch
    thread's, or a worker's. *)

(** Complete a handler: store the response buffer and send response
    packet 0. From a worker the response
    first returns to the dispatch thread through the background queue,
    once the worker's charged work has finished (§3.2). *)
val respond :
  t -> Sim.Cpu.t -> req_type:int -> Session.sslot -> Session.server_info -> Msgbuf.t -> unit

(** A response buffer of [size] bytes: the slot's preallocated MTU-sized
    msgbuf when it fits (§4.3), else a fresh one whose allocation [cpu]
    pays. *)
val init_response : t -> Sim.Cpu.t -> Session.sslot -> int -> Msgbuf.t

(** The configured [codec_backend]. *)
val codec_backend : t -> Codec.backend

(** Charge one typed encode/decode to [cpu], priced by the cost model; on
    the dispatch thread it also emits a "codec" trace span over the
    charged interval. *)
val charge_codec :
  t -> Sim.Cpu.t -> deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit

(** Admit backlogged requests of [sess] into free slots. *)
val admit_backlog : t -> Session.session -> unit

(** Fail every in-flight and backlogged request of the session, returning
    msgbufs and restoring the credit accounting. *)
val fail_pending_requests : Session.session -> Err.t -> unit

(** {2 Session table} *)

val n_sessions : t -> int
val add_session : t -> Session.session -> unit
val get_session : t -> int -> Session.session option
val remove_session : t -> int -> unit
val iter_sessions : t -> (Session.session -> unit) -> unit
val fresh_sn : t -> int

(** Timely rate updates performed across all sessions. *)
val cc_updates : t -> int

(** Drop all datapath state on a local host crash: sessions, queues,
    paced packets and the device's RX ring. *)
val clear_on_crash : t -> unit
