(** Typed RPC: schemas on the datapath (paper §3.1's "layer on top").

    Bridges {!Codec} schemas and eRPC msgbufs while preserving the
    zero-copy story: requests encode directly into the TX msgbuf, servers
    decode straight from the RX ring view, and every encode/decode charges
    the modeled per-field CPU cost to the CPU that would do the work — so
    typed workloads pay for marshalling in the same currency as the rest
    of the datapath.

    The wire [backend] defaults to the endpoint's [Config.codec_backend]
    everywhere; pass [?backend] to pin one (e.g. legacy compact formats).
    [?charge:false] keeps a call timing-neutral — used by pre-existing
    services whose handler charges already account for marshalling. *)

(** {1 Msgbuf encode/decode} *)

val write : ?backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a -> unit
(** [write c m v] resizes [m] to the encoded size and encodes [v] at
    offset 0. Raising behavior (the buffer is not mutated in any of these
    cases): [Invalid_argument] if [m] is eRPC-owned (in flight — this
    includes RX-ring views), if the encoded size exceeds [m]'s capacity,
    or if the codec lacks the requested backend. Checked {e before} the
    resize, so composing sized wrappers like [Codec.with_checksum] cannot
    leave a half-resized buffer behind. *)

val write_within : ?backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a -> unit
(** One-pass {!write} for a buffer the caller already knows is large
    enough: encodes [v] at offset 0 without sizing it first, then resizes
    [m] to the encoded length. Raises [Invalid_argument] if [m] is
    eRPC-owned or a view, if the encoding would overrun [m]'s capacity
    (the buffer's contents are then unspecified), or if the codec lacks
    the backend. *)

val read : ?backend:Codec.backend -> 'a Codec.t -> Msgbuf.t -> 'a
(** Decode a whole message from the msgbuf's current contents, zero-copy
    (reads the underlying storage in place; valid on RX views). Raises
    {!Codec.Decode_error} on malformed input. *)

val alloc_and_write : ?backend:Codec.backend -> 'a Codec.t -> 'a -> Msgbuf.t
(** An exactly-sized fresh msgbuf holding the encoding of the value. *)

(** {1 Client side} *)

val enqueue_request :
  Rpc.t ->
  Session.session ->
  req_type:int ->
  req_codec:'req Codec.t ->
  resp_codec:'resp Codec.t ->
  ?backend:Codec.backend ->
  ?charge:bool ->
  ?req_buf:Msgbuf.t ->
  ?resp_buf:Msgbuf.t ->
  ?resp_max:int ->
  'req ->
  cont:(('resp, Err.t) result -> unit) ->
  unit
(** Typed [Rpc.enqueue_request]: encodes the request (into [req_buf] if
    given, else a fresh exactly-sized msgbuf), charges serialization
    before admission, and hands [cont] the {e decoded} response —
    deserialization is charged inside the request's lifetime, before its
    completion milestone. A response that fails to decode surfaces as
    [Error (Session_error _)].

    The response buffer is [resp_buf] if given, else sized from
    [resp_max], the codec's flat footprint (flat backend), or its static
    compact bound — an unbounded response codec with none of these raises
    [Invalid_argument]. [charge] defaults to [true]. *)

(** {1 Server side} *)

val read_request : ?backend:Codec.backend -> ?charge:bool -> Req_handle.t -> 'a Codec.t -> 'a
(** Decode the request zero-copy from the handler's msgbuf (usually an RX
    ring view) and charge deserialization to the thread running the
    handler. *)

val respond : ?backend:Codec.backend -> ?charge:bool -> Req_handle.t -> 'a Codec.t -> 'a -> unit
(** Encode a typed response through [Req_handle.init_response] (so the
    slot's preallocated MTU buffer is used when it fits), charge
    serialization, and enqueue it. *)

(** {1 Lazy request views}

    Under the flat backend, a handler that touches two fields of a
    ten-field request shouldn't pay for ten: a view defers decoding and
    charges per leaf actually read — the zero-copy/flat layout's whole
    advantage. Under the compact backend (no fixed offsets) the view
    decodes eagerly, charging the full message once, and accessors become
    plain projections. *)

type 'a view

val view_request : ?charge:bool -> Req_handle.t -> 'a Codec.t -> 'a view
(** A view over the handler's request in the endpoint's configured
    backend. Lazy iff the backend is flat and the codec is flat-capable. *)

val view_int : 'a view -> leaf:int -> fallback:('a -> int) -> int
(** Read one integer leaf (charged as one field); [fallback] projects the
    value when the view was decoded eagerly. *)

val is_lazy : 'a view -> bool
