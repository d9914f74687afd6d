type t = {
  proto : Proto.t;
  slot : Session.sslot;
  srv : Session.server_info;
  req_type : int;
  req : Msgbuf.t;
  cpu : Sim.Cpu.t;
  mutable responded : bool;
}

let get_request t = t.req
let charge t ns = Proto.charge t.proto t.cpu ns
let codec_backend t = Proto.codec_backend t.proto

let charge_codec t ~deser ~backend ~leaves ~bytes =
  Proto.charge_codec t.proto t.cpu ~deser ~backend ~leaves ~bytes

let init_response t ~size = Proto.init_response t.proto t.cpu t.slot size

let enqueue_response t resp =
  if t.responded then invalid_arg "Req_handle.enqueue_response: already responded";
  t.responded <- true;
  Proto.respond t.proto t.cpu ~req_type:t.req_type t.slot t.srv resp
