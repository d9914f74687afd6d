(** Typed RPC: schemas on the datapath (paper §3.1's "layer on top").

    Bridges {!Codec} schemas and eRPC msgbufs while preserving the
    zero-copy story: requests encode directly into the caller's TX
    msgbuf, servers decode straight from the RX ring view, and every
    encode/decode charges the modeled per-field CPU cost to the CPU that
    would do the work — so typed workloads pay for marshalling in the same
    currency as the rest of the datapath. Every decode is eager.

    On the RPC paths the wire backend is the endpoint's
    [Config.codec_backend]; a client can pass [?backend] to pin one (the
    service's frozen compact formats), and [?charge:false] to keep its
    call timing-neutral — used by services whose handler charges already
    account for marshalling. *)

(** {1 Msgbuf encode/decode} *)

val write : backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a -> unit
(** [write ~backend c m v] resizes [m] to the encoded size and encodes [v]
    at offset 0. Raising behavior (the buffer is not mutated in any of
    these cases): [Invalid_argument] if [m] is eRPC-owned (in flight —
    this includes RX-ring views), if the encoded size exceeds [m]'s
    capacity, or if the codec lacks the requested backend. *)

val write_within : backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a -> unit
(** One-pass {!write} for a buffer the caller already knows is large
    enough: encodes [v] at offset 0 without sizing it first, then resizes
    [m] to the encoded length. Raises [Invalid_argument] if [m] is
    eRPC-owned or a view, if the encoding would overrun [m]'s capacity
    (the buffer's contents are then unspecified), or if the codec lacks
    the backend. *)

val read : backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a
(** Decode a whole message from the msgbuf's current contents, zero-copy
    (reads the underlying storage in place; valid on RX views). Raises
    {!Codec.Decode_error} on malformed input. *)

(** {1 Client side} *)

val enqueue_request :
  Rpc.t ->
  Session.session ->
  req_type:int ->
  req_codec:'req Codec.t ->
  resp_codec:'resp Codec.t ->
  ?backend:Codec.backend ->
  ?charge:bool ->
  req_buf:Msgbuf.t ->
  resp_buf:Msgbuf.t ->
  'req ->
  cont:(('resp, Err.t) result -> unit) ->
  unit
(** Typed [Rpc.enqueue_request]: encodes the request into [req_buf] (as
    {!write}), charges serialization before admission, and hands [cont]
    the {e decoded} response — deserialization is charged inside the
    request's lifetime, before its completion milestone. [resp_buf] must
    hold the largest response. A response that fails to decode surfaces
    as [Error (Session_error _)]. [charge] defaults to [true]. *)

(** {1 Server side} *)

val read_request : Req_handle.t -> 'a Codec.t -> 'a
(** Decode the request zero-copy from the handler's msgbuf (usually an RX
    ring view) and charge deserialization to the thread running the
    handler. *)

val respond : Req_handle.t -> 'a Codec.t -> 'a -> unit
(** Encode a typed response through [Req_handle.init_response] (so the
    slot's preallocated MTU buffer is used when it fits), charge
    serialization, and enqueue it. *)
