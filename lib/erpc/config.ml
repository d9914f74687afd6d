type opts = {
  batched_timestamps : bool;
  timely_bypass : bool;
  rate_limiter_bypass : bool;
  multi_packet_rq : bool;
  preallocated_responses : bool;
  zero_copy_rx : bool;
  congestion_control : bool;
  cumulative_crs : bool;
}

let all_opts_on =
  {
    batched_timestamps = true;
    timely_bypass = true;
    rate_limiter_bypass = true;
    multi_packet_rq = true;
    preallocated_responses = true;
    zero_copy_rx = true;
    congestion_control = true;
    cumulative_crs = false;
  }

type transport_kind = Raw_eth | Rdma_rc

type cc = {
  min_rtt_ns : int;
  add_rate_bps : float;
  samples_per_update : int;
}

let default_cc ~min_rtt_ns =
  { min_rtt_ns; add_rate_bps = 50e6; samples_per_update = 8 }

let max_msg_size = 8 * 1024 * 1024
let rx_batch = 32
let tx_batch = 32
let req_window = 8
let cr_stride = 4
let min_rate_bps = 30e6
let max_retransmits = 8
let wheel_slot_ns = 1_000
let wheel_num_slots = 16_384
let sm_latency_ns = 50_000
let sm_failure_timeout_ns = 5_000_000

type t = {
  transport : transport_kind;
  mtu : int;
  wire_overhead : int;
  session_credits : int;
  rto_ns : int;
  opts : opts;
  cc : cc;
  codec_backend : Codec.backend;
  shm_mode : Shm.mode;
  shm_slots : int;
  shm_hop_ns : int;
}

let of_cluster ?credits (cluster : Transport.Cluster.t) =
  let credits =
    match credits with Some c -> c | None -> Transport.Cluster.default_credits cluster
  in
  (* Base RTT estimate: small-packet round trip between two hosts. Timely
     only needs the order of magnitude to normalize gradients. *)
  let min_rtt_ns =
    (* Base network RTT between hosts under different ToRs (the worst-case
       uncongested path): NIC crossings, cables, and up to three switch
       hops each way. ~6 us on the CX4 profile, matching the paper. *)
    let hop =
      cluster.nic_config.tx_latency_ns + cluster.nic_config.rx_latency_ns
      + (cluster.nic_config.rx_jitter_ns / 2)
      + (4 * cluster.net_config.cable_ns)
      + (2 * cluster.net_config.switch_latency_ns)
    in
    2 * hop
  in
  {
    transport = Raw_eth;
    mtu = cluster.mtu;
    wire_overhead = cluster.wire_overhead;
    session_credits = credits;
    rto_ns = 5_000_000;
    opts = all_opts_on;
    cc = default_cc ~min_rtt_ns;
    codec_backend = Codec.Compact;
    shm_mode = Shm.Auto;
    shm_slots = 512;
    shm_hop_ns = 150;
  }
