(** Server-side handle passed to request handlers (paper §3.1).

    A handler reads the request, obtains a response buffer with
    [init_response] (eRPC transparently uses the slot's preallocated
    MTU-sized msgbuf when the response fits, §4.3), models its compute time
    with [charge], and calls [enqueue_response] — immediately, or later for
    nested RPCs. The closures are installed by the owning {!Rpc} when the
    handle is created. *)

type t = {
  req_type : int;
  req : Msgbuf.t;
  mutable resp : Msgbuf.t option;
  mutable responded : bool;
  mutable charge_fn : int -> unit;
  mutable init_resp_fn : int -> Msgbuf.t;
  mutable enqueue_fn : t -> Msgbuf.t -> unit;
  mutable codec_mode_fn : unit -> Codec.backend * bool;
  mutable codec_charge_fn : deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit;
}

val get_request : t -> Msgbuf.t

(** Model [ns] of handler CPU work on the thread running the handler. *)
val charge : t -> int -> unit

(** The owning endpoint's configured [(codec_backend, codec_offload)] —
    how {!Typed} picks a wire format server-side. *)
val codec_mode : t -> Codec.backend * bool

(** Charge one encode/decode to the thread running the handler, priced by
    the endpoint's cost model (and its offload toggle). Used by {!Typed};
    handlers normally don't call it directly. *)
val charge_codec :
  t -> deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit

(** Obtain a response buffer of [size] bytes. *)
val init_response : t -> size:int -> Msgbuf.t

(** Complete the RPC. May be called at most once, from a dispatch-thread
    context (worker handlers route through the background queue
    automatically). *)
val enqueue_response : t -> Msgbuf.t -> unit

(** Internal constructor used by {!Rpc}. The closures are shared: the
    owning Rpc builds [charge_fn], [codec_mode_fn] and [codec_charge_fn]
    once, and [init_resp_fn]/[enqueue_fn] once per sslot, so a handle
    costs one record per request. *)
val make :
  req_type:int ->
  req:Msgbuf.t ->
  charge_fn:(int -> unit) ->
  init_resp_fn:(int -> Msgbuf.t) ->
  enqueue_fn:(t -> Msgbuf.t -> unit) ->
  codec_mode_fn:(unit -> Codec.backend * bool) ->
  codec_charge_fn:(deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit) ->
  t
