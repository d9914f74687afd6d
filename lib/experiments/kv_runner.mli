(** The one runner behind every replicated-KV experiment (cluster-load,
    kv-chaos and Table 6's sharded baseline).

    [run ~seed scenario] deploys the scenario's {!Workload.Traffic_spec.layout}
    on a CX4 two-tier cluster (4 Raft shards x 3-way replication on the
    replica hosts, echo servers beside them), waits for every shard to
    elect, installs the scenario's fault plan, then drives its tenants
    open-loop through {!Harness.driver} for the horizon plus the settle
    window, stops the replicas and drains the engine. It then audits the
    fabric ({!Netsim.Network.audit}, also at the horizon on an untraced
    run) and checks the service invariants on every run:

    - no acknowledged write lost: every client-acked (client id, seq) is
      in the committed log of {e all} its group's replicas;
    - no write applied twice: the per-incarnation apply observer saw each
      (client id, seq) mutate a store at most once, despite retries;
    - convergence: per group, equal commit indexes, byte-equal committed
      logs, fully applied, and every replica's store byte-equal to a
      dedup-replay of the committed log;
    - every replica host is up and every tenant that issued operations
      had one succeed.

    Determinism: the same seed reproduces the byte-identical fault trace
    and, on a traced run, the identical event trace. *)

type kind = Get | Put

(** One KV operation of the run's history. *)
type entry = {
  client_id : int;
  seq : int;  (** the client's sequence number; [(client_id, seq)] names a PUT in the logs *)
  key : string;
  kind : kind;
  value : string option;
      (** the value a PUT wrote, or a GET read (without the store's zero
          padding); [None] for a GET that missed or failed *)
  invoke_ns : int;
  complete_ns : int;
  result : Obs.Op.result;
}

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
  timeline : Obs.Timeline.t;  (** availability windows with per-window P50/P99 *)
}

type result = {
  scenario : string;
  seed : int64;
  horizon_ns : int;
  tenants : tenant_report list;
  issued : int;  (** KV operations, every KV tenant's *)
  acked : int;  (** KV successes (PUT acks and GET replies) *)
  failed : int;  (** KV operations that failed or missed their deadline *)
  raft_drops : int;  (** Raft sends suppressed while peers were down *)
  dedup_hits : int;  (** duplicate submissions/entries suppressed *)
  restarts : int;  (** replica crash-restart cycles observed *)
  commit : Stats.Hist.t;  (** leader commit latency, all groups merged *)
  attribution : Obs.Anatomy.attribution option;
      (** client-host RPC tail attribution; [None] if the run is untraced
          or its trace retained no complete single-packet RPCs *)
  analyzed_rpcs : int;  (** breakdowns behind [attribution] *)
  issued_rpcs : int;
      (** eRPC requests the client hosts issued, retries and redirects
          included ({!Erpc.Rpc_stats.t.issued}) *)
  breakdowns : Obs.Anatomy.breakdown list;
      (** the per-RPC breakdowns behind [attribution], for invariant checks
          (each sums exactly to its end-to-end latency) *)
  digest : string;  (** {!Obs.Trace.digest} of the run's event trace *)
  events : int;  (** engine events processed *)
  violations : string list;  (** empty on a clean run *)
  trace : string;
      (** the fault trace, one ["<ns> <message>"] line per entry: the
          header ["kv-chaos seed=S scenario=NAME"], fault applications,
          leader crashes, one line per completed KV operation and a final
          [quiesce] line (byte-comparable) *)
  history : entry list;  (** every KV operation, in completion order *)
}

(** The shard placement the runner deploys on a layout. *)
val shard_map : Workload.Traffic_spec.layout -> Service.Shard_map.t

val run : seed:int64 -> Workload.Traffic_spec.scenario -> result
