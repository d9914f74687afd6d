type pkt_type = Req | Cr | Rfr | Resp

type t = {
  mutable req_type : int;
  mutable msg_size : int;
  mutable dest_session : int;
  mutable pkt_type : pkt_type;
  mutable pkt_num : int;
  mutable req_num : int;
  mutable token : int;
}

let pkt_type_to_string = function
  | Req -> "REQ"
  | Cr -> "CR"
  | Rfr -> "RFR"
  | Resp -> "RESP"

let pp fmt t =
  Format.fprintf fmt "[%s rt=%d sess=%d req#%d pkt#%d sz=%d]" (pkt_type_to_string t.pkt_type)
    t.req_type t.dest_session t.req_num t.pkt_num t.msg_size

let chunk_bytes ~mtu ~msg_size k =
  let offset = k * mtu in
  if offset >= msg_size then 0 else Int.min mtu (msg_size - offset)

let data_bytes t ~mtu =
  match t.pkt_type with
  | Cr | Rfr -> 0
  | Req | Resp -> chunk_bytes ~mtu ~msg_size:t.msg_size t.pkt_num
