(** Figure 5 + §6.3: scalability on the 100-node CX4 cluster.

    With T threads per node there are 100T threads; every thread creates a
    client session to every other thread, so each node hosts
    [T * (100T - 1)] client sessions and as many server sessions — 19 980
    at T = 10, the paper's "20000 connections per node". Threads keep 60
    requests of 32 B in flight in batches of 3 (as in Fig 4), to uniformly
    random remote threads; 32 credits per session. *)

type row = {
  threads_per_node : int;
  per_node_mrps : float;
  lat_p50_us : float;
  lat_p99_us : float;
  lat_p999_us : float;
  lat_p9999_us : float;
  retransmits_per_node_per_sec : float;
}

val run :
  ?seed:int64 ->
  ?nodes:int ->
  ?credits:int ->
  ?warmup_us:float ->
  ?measure_us:float ->
  threads:int ->
  unit ->
  row
