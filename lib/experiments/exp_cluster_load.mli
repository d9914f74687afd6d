(** Cluster-scale multi-tenant open-loop traffic with tail-SLO reporting.

    Drives {!Workload.Traffic_spec} scenarios against a CX4 two-tier
    cluster running both the echo harness and the PR-5 sharded
    replicated-KV service: N tenant populations of open-loop sources
    (Poisson / bursty on-off / diurnal-ramp arrivals, uniform / Zipf /
    hot-key-shift key streams, mixed small-RPC + large-transfer traffic)
    issue operations on a fixed schedule regardless of completions, so
    overload surfaces as tail latency rather than reduced offered load.

    Outputs per tenant: issued/ok/failed/shed counts and P50/P99/P99.9
    SLO latencies, over the whole run and over the steady state after
    the 10 ms warmup; how many operations carry each {!Obs.Op} phase tag
    (connect wait, redirect, election, error), before and after the
    warmup; GET and PUT percentiles apart for KV tenants; and an
    availability {!Obs.Timeline}. Per scenario: a
    {!Obs.Anatomy.attribution} naming the component that dominates P99
    vs P50 ("where does the tail come from"), computed from the run's
    event trace over client-host RPCs. Runs are deterministic: the same
    seed reproduces the identical event trace, checked via
    {!Obs.Trace.digest}. *)

type tenant_report = {
  tname : string;
  service : string;  (** "kv" (GETs are kind 0, PUTs kind 1) or "echo" *)
  sources : int;
  offered_rps : float;  (** analytic open-loop offered load *)
  whole : Harness.tally;  (** every operation of the run *)
  steady : Harness.tally option;
      (** the operations issued or shed 10 ms (the warmup) or more after
          the start; [None] when the horizon is shorter than the warmup *)
  steady_tagged : int array;  (** the steady-state [tagged] counts, in any case *)
  timeline : Obs.Json.t;  (** availability windows with per-window P50/P99 *)
}

type result = {
  scenario : string;
  seed : int64;
  horizon_ns : int;
  tenants : tenant_report list;
  attribution : Obs.Anatomy.attribution option;
      (** client-host RPC tail attribution; [None] if the trace retained no
          complete single-packet RPCs *)
  analyzed_rpcs : int;  (** breakdowns behind [attribution] *)
  issued_rpcs : int;
      (** eRPC requests the client hosts issued, retries and redirects
          included ({!Erpc.Rpc_stats.t.issued}) *)
  digest : string;  (** {!Obs.Trace.digest} of the run's event trace *)
  events : int;  (** engine events processed *)
  violations : string list;
      (** empty on a clean run; includes the fabric's conservation audit
          ({!Netsim.Network.audit}) at the end of the run *)
  breakdowns : Obs.Anatomy.breakdown list;
      (** the per-RPC breakdowns behind [attribution], for invariant checks
          (each sums exactly to its end-to-end latency) *)
}

(** [run ~seed scenario] deploys the cluster (6 replica hosts, 2 echo
    servers, 4 client hosts; 4 Raft shards x 3-way replication), boots
    every shard's leader election, then drives the scenario open-loop for
    its horizon plus a settle window. [trace_capacity] bounds the event
    ring (default [2^18]; older events are evicted deterministically). *)
val run :
  ?seed:int64 -> ?trace_capacity:int -> Workload.Traffic_spec.scenario -> result

(** Run a named builtin scenario (see {!Workload.Traffic_spec.builtin}).
    Raises [Invalid_argument] on an unknown name. *)
val run_named :
  ?seed:int64 -> ?scale:float -> ?horizon_ms:float -> string -> result

(** All builtin scenarios in order. [~jobs] fans the scenarios across
    that many OCaml domains; results stay in scenario order, so the
    report is identical for any [jobs]. *)
val run_all :
  ?seed:int64 -> ?scale:float -> ?horizon_ms:float -> ?jobs:int -> unit -> result list

(** [analyzed_rpcs / issued_rpcs]: the share of client RPCs the tail
    attribution covers (0 when none were issued). *)
val coverage : result -> float

val pp_result : Format.formatter -> result -> unit

(** One scenario as JSON, coverage included. *)
val result_to_json : result -> Obs.Json.t
