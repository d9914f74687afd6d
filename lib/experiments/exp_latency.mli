(** Table 2: median latency of 32 B eRPC RPCs vs 32 B RDMA reads between
    two nodes under the same ToR switch, per cluster. *)

type row = {
  cluster : string;
  rdma_read_us : float;
  erpc_us : float;
  erpc_p99_us : float;
}

(** Measure one cluster profile. *)
val measure : ?seed:int64 -> ?samples:int -> Transport.Cluster.t -> row
