(** The wire-protocol core (paper §4): the client-driven request/response
    state machine — request slots, session credits, go-back-N
    retransmission with TX flush, CR/RFR control packets, at-most-once
    delivery — written against the {!Transport.Iface} signature alone.

    Invariants this seam guarantees:
    - the protocol never names a concrete device: every datapath operation
      (TX, flush cost, RQ geometry) goes through the transport value;
    - the protocol never schedules CPU work or runs handlers itself: the
      dispatch loop, timestamp batching, congestion control, the Carousel
      rate limiter and handler invocation are reached only through the
      [env] closures, so {!Rpc} keeps full control of charging order;
    - msgbuf ownership transfers exactly as in the monolithic
      implementation (returned to the application when the continuation
      runs, flushed from the DMA queue on retransmission). *)

type t

(** Capabilities the protocol borrows from the owning {!Rpc} endpoint. *)
type env = {
  ch : int -> unit;
      (** Charge scaled CPU nanoseconds to the dispatch timeline. *)
  charge_memcpy : int -> unit;  (** Charge a copy of [len] bytes. *)
  now_ts : unit -> Sim.Time.t;
      (** Timestamp under the endpoint's batching policy (§5.2.2). *)
  cpu_time : unit -> Sim.Time.t;
      (** [max(now, dispatch-CPU free time)]: when serial CPU work charged
          so far would actually finish. Used to place completion
          milestones after typed-codec charges. *)
  cc_sample : Session.session -> sample_rtt_ns:int -> marked:bool -> unit;
      (** Feed one RTT/ECN sample to the session's rate controller. *)
  transmit :
    Session.sslot ->
    Netsim.Packet.t ->
    wire_bytes:int ->
    tx_item:int ->
    is_retx:bool ->
    unit;
      (** Client-side transmission honoring the Carousel rate limiter. *)
  post : Netsim.Packet.t -> unit;
      (** Direct (uncontrolled) transmission — the server direction. *)
  wake : unit -> unit;  (** Schedule an event-loop activation. *)
  alive : unit -> bool;  (** False once the host is dead. *)
  rtt_sample : int -> unit;  (** Per-packet RTT probe (§6.5). *)
  zero_copy_dispatch : int -> bool;
      (** True when [req_type] has a dispatch-mode handler, enabling
          zero-copy RX (§4.2.3). *)
  invoke : Session.session -> Session.sslot -> Session.server_info -> int -> unit;
      (** Run the request handler for a fully received request. *)
}

val create :
  env:env ->
  engine:Sim.Engine.t ->
  host:int ->
  cfg:Config.t ->
  cost:Cost_model.t ->
  transport:Transport.Iface.t ->
  packets:Netsim.Packet.table ->
  stats:Rpc_stats.t ->
  tid:int ->
  t
(** [packets] is the network's packet-handle table, which the TX packet
    pool interns its packets in. [tid] is the owning endpoint's trace
    thread track (from [Obs.Trace.register_track]; 0 when tracing is
    disabled). *)

(** {2 Datapath} *)

(** Demultiplex one received packet (checksum verify, session/slot lookup,
    client/server RX state machines). *)
val rx_pkt : t -> Netsim.Packet.t -> unit

(** Process every retransmission queued by RTO timers. *)
val drain_retx : t -> unit

(** One TX burst: service up to [Config.tx_batch] packets from the
    transmission queue. *)
val run_tx_burst : t -> unit

(** Work remains in the TX or retransmission queue. *)
val has_pending_tx : t -> bool

(** {2 Requests and responses} *)

val enqueue_request :
  t ->
  Session.session ->
  req_type:int ->
  req:Msgbuf.t ->
  resp:Msgbuf.t ->
  cont:((unit, Err.t) result -> unit) ->
  unit

(** As [enqueue_request], with a completion hook that runs on success just
    before [cont], with the filled response msgbuf — see
    {!Session.req_args}. *)
val enqueue_request_hooked :
  t ->
  Session.session ->
  req_type:int ->
  req:Msgbuf.t ->
  resp:Msgbuf.t ->
  on_complete:(Msgbuf.t -> unit) ->
  cont:((unit, Err.t) result -> unit) ->
  unit

(** Complete a server handler: store the response buffer and send response
    packet 0 (with the deferred ECN echo). *)
val enqueue_response :
  t -> Session.session -> Session.sslot -> Session.server_info -> Msgbuf.t -> unit

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

(** Armed RTO timers across all sessions (zero once quiesced). *)
val armed_rto_count : t -> int

(** Rate updates performed across all session controllers. *)
val cc_updates : t -> int

(** Drop all protocol state on a local host crash. *)
val clear_on_crash : t -> unit
