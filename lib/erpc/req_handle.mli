(** Server-side handle passed to request handlers (paper §3.1).

    A handler reads the request, obtains a response buffer with
    [init_response] (eRPC transparently uses the slot's preallocated
    MTU-sized msgbuf when the response fits, §4.3), models its compute time
    with [charge], and calls [enqueue_response] — immediately, or later for
    nested RPCs.

    A handle is data: the owning {!Rpc} builds one per request, naming the
    slot, the protocol state and the CPU of the thread that runs the
    handler — the dispatch thread's, or a worker's. Every charge below
    lands on that thread. *)

type t = {
  proto : Proto.t;
  slot : Session.sslot;
  srv : Session.server_info;
  req_type : int;
  req : Msgbuf.t;
  cpu : Sim.Cpu.t;  (** the thread running the handler *)
  mutable responded : bool;
}

val get_request : t -> Msgbuf.t

(** Model [ns] of handler CPU work on the thread running the handler. *)
val charge : t -> int -> unit

(** The owning endpoint's configured [codec_backend] — how {!Typed}
    picks a wire format server-side. *)
val codec_backend : t -> Codec.backend

(** Charge one encode/decode to the thread running the handler, priced by
    the endpoint's cost model. Used by {!Typed}; handlers normally don't
    call it directly. *)
val charge_codec :
  t -> deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit

(** Obtain a response buffer of [size] bytes (the slot's preallocated
    msgbuf when it fits; otherwise the handler's thread pays the
    allocation). *)
val init_response : t -> size:int -> Msgbuf.t

(** Complete the RPC. May be called at most once (a second call raises
    [Invalid_argument]), from a dispatch-thread context (worker handlers
    route through the background queue automatically). *)
val enqueue_response : t -> Msgbuf.t -> unit
