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

let get_request t = t.req

let charge t ns = t.charge_fn ns

let codec_mode t = t.codec_mode_fn ()

let charge_codec t ~deser ~backend ~leaves ~bytes =
  t.codec_charge_fn ~deser ~backend ~leaves ~bytes

let init_response t ~size = t.init_resp_fn size

let enqueue_response t resp =
  if t.responded then invalid_arg "Req_handle.enqueue_response: already responded";
  t.responded <- true;
  t.enqueue_fn t resp

let make ~req_type ~req ~charge_fn ~init_resp_fn ~enqueue_fn ~codec_mode_fn ~codec_charge_fn =
  {
    req_type;
    req;
    resp = None;
    responded = false;
    charge_fn;
    init_resp_fn;
    enqueue_fn;
    codec_mode_fn;
    codec_charge_fn;
  }
