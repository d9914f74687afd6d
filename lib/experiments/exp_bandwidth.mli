(** Figure 6 (large-RPC goodput vs request size, eRPC vs RDMA write over
    100 Gbps) and Table 4 (8 MB request throughput under injected packet
    loss).

    Setup mirrors §6.4: one client thread sends R-byte requests to one
    server thread and keeps a single request outstanding; the server
    replies with 32 B; 32 credits per session. *)

type point = {
  req_size : int;
  goodput_gbps : float;
  retransmits : int;
  server_tx_pkts : int;  (** packets the server sent (0 for RDMA writes) *)
}

(** eRPC goodput for one request size. [requests] round trips are timed
    after one warmup request, from the warmup's completion to the last
    request's; the run lasts until that last completion. [config]
    replaces [Erpc.Config.of_cluster ~credits] for the 100 Gbps cluster
    ({!Transport.Cluster.cx5_ib100}). *)
val erpc_goodput :
  ?credits:int ->
  ?config:Erpc.Config.t ->
  ?requests:int ->
  ?loss:float ->
  ?seed:int64 ->
  ?trace:Obs.Trace.t ->
  req_size:int ->
  unit ->
  point

(** RDMA-write goodput for one request size (one outstanding write),
    timed like {!erpc_goodput} at its default 8 requests. *)
val rdma_write_goodput : ?seed:int64 -> req_size:int -> unit -> point
