(** Verbs-like RDMA operations over the simulated fabric — the baseline
    eRPC is compared against (Table 2 latency, Fig 6 bandwidth).

    One {!endpoint} per host. RDMA reads and writes execute without remote
    CPU involvement: the remote NIC serves them after a fixed processing
    delay. Large operations stream MTU-sized packets at line rate. Reliable
    Connection semantics are approximated: writes complete at the requester
    after the remote NIC acks the last packet; reads complete when all
    response data has arrived.

    Posting a work request costs 75 ns of CPU and polling its completion
    40 ns; the remote NIC serves a READ in 150 ns and WRITE data in 60 ns.
    These four costs are constants of the model: no profile differs in
    them. *)

(** The cluster's NIC as the RDMA RC hardware path sees it: TX and RX
    latencies [rdma_delta_ns] lower than eRPC's UD-verbs path, RX jitter
    folded in at its mean, so the pipeline is deterministic. Endpoints
    cross it on each side; an [Erpc.Rpc] in RC mode runs its NIC with it. *)
val nic_config : Transport.Cluster.t -> Nic.config

type endpoint

(** An endpoint on [host] of a network built from the cluster profile:
    it streams the profile's MTU and adds {!Transport.Cluster.wire_overhead}
    to every packet. *)
val create : Sim.Engine.t -> Netsim.Network.t -> host:int -> Transport.Cluster.t -> endpoint

(** [post_read ep ~dst ~len ~completion] issues a [len]-byte RDMA read;
    [completion] fires when the data is in local memory. *)
val post_read : endpoint -> dst:int -> len:int -> completion:(unit -> unit) -> unit

(** [post_write ep ~dst ~len ~completion] issues a [len]-byte RDMA write;
    [completion] fires when the remote NIC has acked the last packet. *)
val post_write : endpoint -> dst:int -> len:int -> completion:(unit -> unit) -> unit
