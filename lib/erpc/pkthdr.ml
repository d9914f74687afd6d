type pkt_type = Req | Cr | Rfr | Resp

type t = {
  mutable req_type : int;
  mutable msg_size : int;
  mutable dest_session : int;
  mutable pkt_type : pkt_type;
  mutable pkt_num : int;
  mutable req_num : int;
  mutable token : int;
  mutable ecn_echo : bool;
}

let size = 16

(* FNV-1a, truncated to OCaml's int (the 64-bit offset basis loses its top
   bit to the tag). Fast enough to run on every packet and plenty for
   detecting injected bit flips (we model error detection, not adversarial
   collisions). *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv_step h v = (h lxor v) * fnv_prime land max_int

let bytes_checksum ?(init = fnv_offset) b ~off ~len =
  let h = ref init in
  for i = off to off + len - 1 do
    h := fnv_step !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let pkt_type_code = function Req -> 0 | Cr -> 1 | Rfr -> 2 | Resp -> 3

(* Wire checksum over every header field and the payload bytes. ECN marks
   are applied by switches in flight, so (like IP's ToS handling) they are
   excluded from the covered fields. *)
let checksum t ~data ~off ~len =
  let h = fnv_offset in
  let h = fnv_step h t.req_type in
  let h = fnv_step h t.msg_size in
  let h = fnv_step h t.dest_session in
  let h = fnv_step h (pkt_type_code t.pkt_type) in
  let h = fnv_step h t.pkt_num in
  let h = fnv_step h t.req_num in
  let h = fnv_step h t.token in
  let h = fnv_step h (if t.ecn_echo then 1 else 0) in
  bytes_checksum ~init:h data ~off ~len

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
