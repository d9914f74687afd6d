(** Evaluation-cluster profiles (paper Table 1).

    A profile bundles everything that differed across the paper's testbeds:
    topology, link rate, MTU, NIC latencies, and a CPU speed scale. The
    per-packet wire overhead did not differ, so it is the constant
    {!wire_overhead}. The three paper clusters are modeled, plus the 2-node
    100 Gbps setup used for the large-message experiment (Fig 6).

    Latency calibration: NIC TX/RX latencies and cable delays are chosen so
    that the model's base RTTs land on the paper's measured values (Table 2:
    RDMA read 1.7/2.9/2.0 µs on CX3/CX4/CX5). CPU scales are chosen so
    single-core small-RPC rates land on Fig 4. *)

type t = {
  name : string;
  net_config : Netsim.Network.config;
  nic_config : Nic.config;
  num_hosts : int;
  mtu : int;
      (** max payload bytes per packet (data + eRPC header): the one MTU
          eRPC packetizes by, sizes credits by ({!default_credits}) and
          the RDMA baseline streams by *)
  link_gbps : float;
  cpu_scale : float;  (** multiplier on all modeled CPU costs *)
  bdp_bytes : int;  (** network bandwidth-delay product *)
  rdma_delta_ns : int;
      (** per-NIC-crossing latency advantage of the hardware RDMA path over
          eRPC's UD-verbs path; used by {!Rdma.Qp.nic_config} *)
  colocation_groups : int list list;
      (** sets of host ids modeled as processes on one physical machine;
          empty in every stock profile (see {!colocate}) *)
}

(** Transport framing bytes every packet adds on the wire, in every
    profile: 60 B, as the paper implies (32 B RPCs appear as 92 B packets,
    §6.3: a 16 B eRPC header plus transport framing). eRPC's wire packets
    and the RDMA baseline's both add it. *)
val wire_overhead : int

(** 11 nodes, InfiniBand 56 Gbps, one switch (Emulab). *)
val cx3 : ?nodes:int -> unit -> t

(** 100 nodes, lossy Ethernet 25 Gbps, 5 ToRs + spine, 2:1 oversubscribed
    (CloudLab). The paper's primary cluster. *)
val cx4 : ?nodes:int -> unit -> t

(** 8 nodes, lossy Ethernet 40 Gbps, one switch. *)
val cx5 : ?nodes:int -> unit -> t

(** 2 nodes connected by a 100 Gbps InfiniBand switch (Fig 6 setup). *)
val cx5_ib100 : unit -> t

(** Instantiate the network fabric for a profile. *)
val build : Sim.Engine.t -> t -> Netsim.Network.t

(** Default session credit count for a profile: BDP/MTU, the paper's flow
    control rule (§4.3.1). *)
val default_credits : t -> int

(** [colocate t groups] marks each group of host ids as co-located on one
    physical machine (the network topology is unchanged; the shared-memory
    transport uses this to route intra-machine traffic off the wire).
    Raises [Invalid_argument] on out-of-range hosts. *)
val colocate : t -> int list list -> t

(** Host-to-machine map: [machine_of t] maps each host id to its group
    representative (itself when ungrouped). Two hosts are co-located iff
    their entries are equal. *)
val machine_of : t -> int array
