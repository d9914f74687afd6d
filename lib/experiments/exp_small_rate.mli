(** Figure 4 (single-core small-RPC rate with B requests per batch) and
    Table 3 (factor analysis of the common-case optimizations).

    Setup mirrors §6.2: one thread per node; every thread is both client
    and server; each thread keeps [window] (60) 32 B requests in flight,
    issued in batches of [batch] to uniformly random remote threads. The
    rate is measured over [measure_ms] (default 4) after a 1 ms warmup.
    [payload] (default: 32 B echoes) picks what every request carries; a
    {!Harness.Typed} payload runs the same mesh with serialization on the
    datapath, under [config]'s codec backend. *)

type result = {
  per_thread_mrps : float;  (** client request rate per thread *)
  total_rpcs : int;
  retransmits : int;
}

val run :
  ?seed:int64 ->
  ?config:Erpc.Config.t ->
  ?trace:Obs.Trace.t ->
  ?window:int ->
  ?measure_ms:float ->
  ?payload:Harness.payload ->
  cluster:Transport.Cluster.t ->
  batch:int ->
  unit ->
  result

(** A FaSST-like specialized RPC baseline: same substrate, congestion
    control off, and a cost model stripped of eRPC's generality (no msgbuf
    machinery, no CC hooks, no preallocation checks), with [window]
    requests in flight per thread. *)
val run_fasst :
  ?seed:int64 ->
  ?measure_ms:float ->
  window:int ->
  cluster:Transport.Cluster.t ->
  batch:int ->
  unit ->
  result

(** Table 3 factor analysis on CX4 with B=3: optimizations disabled
    cumulatively, in the paper's order, starting with the baseline.
    Extended with non-cumulative "Typed codec" rows (the baseline re-run
    with typed requests under each codec backend) and "Transport" rows
    (the baseline on the RDMA RC datapath, and on a pairwise-colocated
    cluster where the shared-memory transport carries the intra-host share
    of the mesh). Returns (label, result) rows. *)
val factor_analysis : ?seed:int64 -> unit -> (string * result) list
