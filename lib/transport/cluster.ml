type t = {
  name : string;
  net_config : Netsim.Network.config;
  nic_config : Nic.config;
  num_hosts : int;
  mtu : int;
  wire_overhead : int;
  link_gbps : float;
  cpu_scale : float;
  bdp_bytes : int;
  rdma_delta_ns : int;
  colocation_groups : int list list;
}

(* All profiles share the per-packet wire overhead the paper implies: 32 B
   RPCs appear as 92 B packets (§6.3), i.e. 60 B of headers (16 B eRPC
   header + transport framing). *)
let wire_overhead = 60

let cx3 ?(nodes = 11) () =
  let link_gbps = 56.0 in
  {
    name = "CX3";
    net_config =
      {
        Netsim.Network.topology = Single_switch { hosts = nodes };
        link_gbps;
        cable_ns = 100;
        switch_latency_ns = 200;
        switch_buffer_bytes = 12 * 1024 * 1024;
        buffer_alpha = 8.0;
        (* CX3 is InfiniBand: link-level flow control, no congestion
           drops. *)
        lossless = true;
      };
    nic_config = { Nic.default_config with tx_latency_ns = 250; rx_latency_ns = 230; rq_size = 65536 };
    num_hosts = nodes;
    mtu = 4096;
    wire_overhead;
    link_gbps;
    cpu_scale = 1.28;
    bdp_bytes = 22 * 1024;
    rdma_delta_ns = 100;
    colocation_groups = [];
  }

let cx4 ?(nodes = 100) () =
  let link_gbps = 25.0 in
  let hosts_per_tor = (nodes + 4) / 5 in
  {
    name = "CX4";
    net_config =
      {
        Netsim.Network.topology =
          Two_tier
            { tors = 5; hosts_per_tor; spines = 1; uplinks_per_tor = 5; uplink_gbps = 100.0 };
        link_gbps;
        cable_ns = 250;
        switch_latency_ns = 300;
        switch_buffer_bytes = 12 * 1024 * 1024;
        buffer_alpha = 8.0;
        lossless = false;
      };
    (* The deterministic NIC latency is set so that, with the uniform
       [0,1us] RX jitter's 0.5us mean included, the same-ToR eRPC median
       RTT lands on the paper's 3.7us. *)
    nic_config =
      {
        Nic.default_config with
        tx_latency_ns = 200;
        rx_latency_ns = 150;
        rx_jitter_ns = 1_000;
        rq_size = 1 lsl 20;
      };
    num_hosts = nodes;
    mtu = 1024;
    wire_overhead;
    link_gbps;
    cpu_scale = 1.0;
    bdp_bytes = 19 * 1024;
    rdma_delta_ns = 200;
    colocation_groups = [];
  }

let cx5 ?(nodes = 8) () =
  let link_gbps = 40.0 in
  {
    name = "CX5";
    net_config =
      {
        Netsim.Network.topology = Single_switch { hosts = nodes };
        link_gbps;
        cable_ns = 100;
        switch_latency_ns = 300;
        switch_buffer_bytes = 16 * 1024 * 1024;
        buffer_alpha = 8.0;
        lossless = false;
      };
    nic_config =
      {
        Nic.default_config with
        tx_latency_ns = 250;
        rx_latency_ns = 65;
        rx_jitter_ns = 300;
        rq_size = 65536;
      };
    num_hosts = nodes;
    mtu = 1024;
    wire_overhead;
    link_gbps;
    cpu_scale = 0.92;
    bdp_bytes = 12 * 1024;
    rdma_delta_ns = 75;
    colocation_groups = [];
  }

let cx5_ib100 () =
  let link_gbps = 100.0 in
  {
    name = "CX5-IB100";
    net_config =
      {
        Netsim.Network.topology = Single_switch { hosts = 2 };
        link_gbps;
        cable_ns = 100;
        switch_latency_ns = 200;
        switch_buffer_bytes = 16 * 1024 * 1024;
        buffer_alpha = 8.0;
        (* The Fig 6 testbed connects two nodes over InfiniBand. *)
        lossless = true;
      };
    nic_config = { Nic.default_config with tx_latency_ns = 250; rx_latency_ns = 215; rq_size = 65536 };
    num_hosts = 2;
    mtu = 4096;
    wire_overhead;
    link_gbps;
    cpu_scale = 0.92;
    bdp_bytes = 25 * 1024;
    rdma_delta_ns = 75;
    colocation_groups = [];
  }

let build engine t = Netsim.Network.create engine t.net_config

let default_credits t = max 2 (t.bdp_bytes / t.mtu)

(* {2 Host co-location}

   A colocation group is a set of host ids modeled as processes on one
   physical machine (containers / co-scheduled microservices). The
   network topology is unchanged — grouped hosts keep their switch ports
   for remote traffic — but transports that care (Shm) can route
   intra-machine traffic over the memory interconnect instead. *)

let colocate t groups =
  let check h =
    if h < 0 || h >= t.num_hosts then
      invalid_arg (Printf.sprintf "Cluster.colocate: host %d out of range" h)
  in
  List.iter (List.iter check) groups;
  { t with colocation_groups = groups }

let machine_of t =
  let m = Array.init t.num_hosts (fun i -> i) in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | rep :: _ -> List.iter (fun h -> m.(h) <- rep) group)
    t.colocation_groups;
  m
