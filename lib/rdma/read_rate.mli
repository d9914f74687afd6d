(** The Figure 1 experiment: RDMA read rate vs. connections per NIC.

    The requester NIC processes one small read per [base_ns] when the
    connection state is cached; a cache miss adds [miss_penalty_ns] of
    (pipelined, amortized) PCIe state-fetch time. Reads target uniformly
    random connections, so the measured rate reflects the LRU cache's true
    hit ratio at each connection count. *)

type result = {
  connections : int;
  rate_mops : float;
  miss_ratio : float;
}

val run :
  ?base_ns:float ->
  ?miss_penalty_ns:float ->
  ?cache:Nic.Conn_cache.t ->
  ?ops:int ->
  ?seed:int64 ->
  connections:int ->
  unit ->
  result
