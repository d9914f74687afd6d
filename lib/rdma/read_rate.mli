(** The Figure 1 experiment: RDMA read rate vs. connections per NIC.

    The requester NIC processes one small read per 22 ns when the
    connection state is in its default cache; a cache miss adds 26 ns of
    (pipelined, amortized) PCIe state-fetch time. Reads target uniformly
    random connections, so the measured rate reflects the LRU cache's true
    hit ratio at each connection count. A run times 400 000 reads after
    warming the cache with up to 4 per connection. *)

type result = {
  connections : int;
  rate_mops : float;
  miss_ratio : float;
}

val run : ?seed:int64 -> connections:int -> unit -> result
