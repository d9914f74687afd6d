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

let chunk_bytes ~mtu ~msg_size k =
  let offset = k * mtu in
  if offset >= msg_size then 0 else Int.min mtu (msg_size - offset)
