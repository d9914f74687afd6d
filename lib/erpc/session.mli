(** Sessions and session slots (paper §4.3, §5).

    A session is a one-to-one connection between two Rpc endpoints; it
    maintains [credits] for BDP flow control and an array of
    {!Config.req_window} slots, each tracking one outstanding RPC. Slots, per-role info records
    and preallocated buffers are allocated lazily so that experiments with
    millions of mostly-idle sessions (Fig 5) stay within memory.

    The records are deliberately transparent: {!Proto} owns all protocol
    logic; this module only defines state and small invariant-preserving
    helpers.

    Wire-protocol positions: a client slot's packets are totally ordered.
    TX item [k] is request packet [k] for [k < n_req_pkts], and the RFR for
    response packet [k - n_req_pkts + 1] otherwise. RX item [i] is the CR
    for request packet [i] for [i < n_req_pkts - 1], and response packet
    [i - (n_req_pkts - 1)] otherwise. RX item [i] acknowledges TX item [i],
    so go-back-N rollback is simply [num_tx <- num_rx]. *)

type conn_state =
  | Connect_pending
  | Connected
  | Error of string
  | Destroyed

type role = Client | Server

(** A queued request: what the application hands to [enqueue_request].
    [on_complete] runs on the dispatch thread just before [cont] on
    success only, with the filled response — the seam typed RPC uses to
    charge response deserialization inside the request's own lifetime. *)
type req_args = {
  req_type : int;
  req : Msgbuf.t;
  resp : Msgbuf.t;
  on_complete : Msgbuf.t -> unit;
  cont : (unit, Err.t) result -> unit;
}

type client_info = {
  mutable num_tx : int;  (** TX items sent (monotone within a request, rolled back on RTO) *)
  mutable num_rx : int;  (** in-order RX items received *)
  mutable max_tx : int;  (** highest TX item ever sent for this request *)
  mutable n_req_pkts : int;
  mutable n_resp_pkts : int;  (** -1 until response packet 0 arrives *)
  mutable tx_ts : Sim.Time.t array;  (** timestamps of in-flight TX items, ring of size credits *)
  mutable wheel_refs : int;  (** packets of this slot queued in the rate limiter *)
  mutable retx_in_wheel : bool;
      (** a retransmitted packet sits in the rate limiter: responses are
          dropped until the wheel drains (Appendix C) *)
  mutable retransmits : int;
  mutable consec_retx : int;
      (** consecutive RTOs since the last accepted RX item; reaching
          [Config.max_retransmits] resets the session (§4.3) *)
}

type server_info = {
  mutable num_rx : int;  (** in-order request packets received *)
  mutable n_req_pkts : int;
  mutable handler_done : bool;  (** response enqueued *)
  mutable handler_running : bool;
  mutable req_buf : Msgbuf.t option;
  mutable spare_req_buf : Msgbuf.t option;
      (** the previous request's assembly buffer, recycled for the next
          request on this slot when large enough (eRPC pre-allocates
          per-sslot msgbufs rather than allocating per request) *)
  mutable resp_buf : Msgbuf.t option;
}

type sslot = {
  index : int;
  session : session;
  mutable req_num : int;  (** current request number; [req_num mod Config.req_window = index] *)
  mutable busy : bool;
  mutable args : req_args option;  (** client side: the in-flight request *)
  mutable cli : client_info option;
  mutable srv : server_info option;
  mutable in_txq : bool;
  mutable in_credit_waitq : bool;  (** parked waiting for session credits *)
  mutable needs_retx : bool;
  mutable rto : Sim.Timer.t option;
  mutable issue_time : Sim.Time.t;
  mutable prealloc_resp : Msgbuf.t option;  (** server side, MTU-sized *)
}

and session = {
  sn : int;  (** session number local to the owning Rpc *)
  role : role;
  token : int;
      (** fabric-wide unique session token; both endpoints of a session
          carry the client-chosen token and stamp it into every data
          packet, so stale traffic for a recycled [sn] is detectable *)
  remote_host : int;
  remote_rpc_id : int;
  mutable remote_sn : int;  (** peer's session number; -1 until connected *)
  mutable state : conn_state;
  slots : sslot option array;
  mutable credits : int;
  credit_limit : int;
  backlog : req_args Queue.t;
  credit_waiters : sslot Queue.t;
      (** slots with sendable packets blocked on credits; re-queued for TX
          when a credit returns *)
  mutable cc : Timely.t option;  (** client sessions under congestion control *)
  mutable next_tx_ts : Sim.Time.t;  (** Carousel pacing cursor *)
  mutable connect_cb : (unit, Err.t) result -> unit;
  mutable retransmits : int;  (** cumulative, across all slots and requests *)
}

val create :
  sn:int ->
  role:role ->
  token:int ->
  remote_host:int ->
  remote_rpc_id:int ->
  credits:int ->
  session

(** Slot [i], allocated on first use. *)
val slot : session -> int -> sslot

(** The client info record of a slot, allocated on first use with a
    timestamp ring of [credits] entries. *)
val client_info : sslot -> credits:int -> client_info

val server_info : sslot -> server_info

(** First idle slot, if any. *)
val free_slot : session -> sslot option

(** Sum of (num_tx - num_rx) over busy client slots — must equal
    [credit_limit - credits]; checked by tests. *)
val outstanding_packets : session -> int
