type t = {
  scale : float;
  loop_overhead : int;
  rx_pkt : int;
  tx_data_pkt : int;
  tx_ctrl_pkt : int;
  rdtsc : int;
  timely_update : int;
  wheel_insert : int;
  wheel_poll_pkt : int;
  dyn_alloc : int;
  memcpy_fixed : int;
  memcpy_per_256b : int;
  handler_dispatch : int;
  continuation : int;
  worker_handoff : int;
  enqueue_request : int;
  credit_logic : int;
  cc_check : int;
  ser_field : int;
  deser_field : int;
  flat_ser_field : int;
  flat_deser_field : int;
  shm_ring_post : int;
  shm_seal : int;
  shm_unseal : int;
  shm_share_desc : int;
  shm_ownership_check : int;
}

let default =
  {
    scale = 1.0;
    loop_overhead = 20;
    rx_pkt = 28;
    tx_data_pkt = 30;
    tx_ctrl_pkt = 22;
    rdtsc = 8;
    timely_update = 15;
    wheel_insert = 7;
    wheel_poll_pkt = 4;
    dyn_alloc = 35;
    memcpy_fixed = 11;
    memcpy_per_256b = 27;
    handler_dispatch = 16;
    continuation = 14;
    worker_handoff = 200;
    enqueue_request = 20;
    credit_logic = 4;
    cc_check = 6;
    ser_field = 6;
    deser_field = 8;
    flat_ser_field = 2;
    flat_deser_field = 1;
    shm_ring_post = 12;
    shm_seal = 30;
    shm_unseal = 30;
    shm_share_desc = 18;
    shm_ownership_check = 15;
  }

let scaled t ns = int_of_float (ceil (t.scale *. float_of_int ns))

(* Small copies are cache-resident and cost only the fixed term; chunks
   beyond the first 256 B pay memory bandwidth. *)
let memcpy_cost t bytes =
  if bytes <= 0 then 0
  else scaled t (t.memcpy_fixed + (t.memcpy_per_256b * (((bytes + 255) / 256) - 1)))

let for_cluster (cluster : Transport.Cluster.t) = { default with scale = cluster.cpu_scale }

(* FaSST is specialized: no congestion control, no large-message or
   generality machinery. Measured FaSST costs are lower per packet since
   there is no header generality, no msgbuf layering, no CC hooks. *)
let fasst cluster =
  {
    (for_cluster cluster) with
    rx_pkt = 24;
    tx_data_pkt = 22;
    enqueue_request = 10;
    handler_dispatch = 10;
    continuation = 8;
    memcpy_fixed = 6;
    credit_logic = 2;
  }

(* Full scaled cost of one encode or decode: per touched field (branchier
   on decode: validation) plus the bulk byte movement. *)
let codec_cost t ~deser ~(backend : Codec.backend) ~leaves ~bytes =
  let per_field =
    match (backend, deser) with
    | Codec.Compact, false -> t.ser_field
    | Codec.Compact, true -> t.deser_field
    | Codec.Flat, false -> t.flat_ser_field
    | Codec.Flat, true -> t.flat_deser_field
  in
  scaled t (per_field * leaves) + memcpy_cost t bytes

(* Shared-memory ring charges (see {!Shm}), pre-scaled so the transport
   never re-applies the cluster CPU scale. The serialize path pays the
   slot publish plus a plain memcpy of the payload; the share path pays a
   flat descriptor publish with the MemRPC safety charges: seal on send,
   unseal + ownership-transfer check on receive. With the default values
   the two paths cross near 1 KB payloads — below it copying is cheaper
   than guarding, above it sharing wins. *)
let shm_costs t =
  {
    Shm.serialize_ns = (fun bytes -> scaled t t.shm_ring_post + memcpy_cost t bytes);
    share_tx_ns = scaled t (t.shm_ring_post + t.shm_share_desc + t.shm_seal);
    share_rx_ns = scaled t (t.shm_unseal + t.shm_ownership_check);
    ring_post_ns = scaled t t.shm_ring_post;
  }
