(** §7.2: Masstree over eRPC on the CX3 cluster.

    A single server node hosts an ordered index of one million 8 B keys ->
    8 B values. Its 16 hyperthreads split into 14 dispatch threads and 2
    worker threads. 64 client threads on 8 nodes issue 99% GET(key) and 1%
    SCAN(key) requests (a scan sums the values of the 128 keys following
    [key], and runs in a worker thread). Two outstanding requests per
    client saturate the server; GETs are measured over 3 ms after a 1 ms
    warmup. *)

type result = {
  gets_per_sec_m : float;  (** million GETs/s served *)
  get_p50_us : float;
  get_p99_us : float;
  scan_p99_us : float;
}

(** Full-load run. [workers = false] runs scans in dispatch threads, the
    paper's "dispatch-only" configuration whose GET p99 rises to ~26 us. *)
val run : ?seed:int64 -> ?workers:bool -> unit -> result

(** Median GET latency under low load (one client, one outstanding). *)
val low_load_median_us : ?seed:int64 -> unit -> float
