(** The one runner, report and row behind every scenario experiment:
    cluster-load, kv-chaos, the echo-chaos suite behind [erpc_sim chaos]
    and Table 6's sharded baseline.

    [run ~seed scenario] deploys the scenario's {!Workload.Traffic_spec.layout}
    on a CX4 two-tier cluster (4 Raft shards x 3-way replication on the
    replica hosts, if it has any; echo servers beside them), waits for
    every shard to elect, installs the scenario's fault plan, then drives
    its tenants open-loop through {!Harness.driver} for the horizon plus
    the settle window, stops the replicas and drains the engine. It then
    audits the fabric ({!Netsim.Network.audit}, also at the horizon on an
    untraced run) and checks, on every run, the wire protocol's
    invariants:

    - every client session's credits are back at its credit limit, and
      no RTO timer is armed ({!Erpc.Rpc.audit}, on every Rpc);
    - at most once: handlers ran no more often than requests were
      issued, summed over every Rpc;
    - every tenant's operations each completed exactly once
      (issued = ok + failed, and no echo completes twice), and a tenant
      that issued operations had one succeed;
    - an echo whose response holds its whole request returns the
      operation's id intact;
    - a traced run whose client hosts issued RPCs analyzed some of them
      (its row's [attribution] is not null);

    and, on a layout with replicas, the service's:

    - no acknowledged write lost: every client-acked (client id, seq) is
      in the committed log of {e all} its group's replicas;
    - no write applied twice: the per-incarnation apply observer saw each
      (client id, seq) mutate a store at most once, despite retries;
    - convergence: per group, equal commit indexes, byte-equal committed
      logs, fully applied, and every replica's store byte-equal to a
      dedup-replay of the committed log;
    - every replica host is up;
    - the KV history is linearizable ({!linearizability_violations}).

    Determinism: the same seed reproduces the byte-identical fault trace
    and, on a traced run, the identical event trace. Every result prints
    through {!pp} and serializes through {!to_json}, whichever scenario
    it ran. *)

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
  retransmits : int;  (** go-back-N rollbacks, summed over every Rpc *)
  session_resets : int;  (** sessions reset by bounded retransmission, over every Rpc *)
  rx_corrupt : int;  (** packets dropped for a failed checksum, over every Rpc *)
  commit : Stats.Hist.t;  (** leader commit latency, all groups merged *)
  traced : bool;
      (** whether the run recorded its event trace; [attribution],
          [analyzed_rpcs], [breakdowns] and [digest] describe that trace,
          so an untraced run's row writes null for them *)
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

(** [linearizability_violations history] is one message per key whose
    operations have no linearization as a register that starts absent
    (empty if the history is linearizable; keys are checked on their
    own). A successful PUT takes effect between its invoke and its
    completion; a failed PUT at any instant after its invoke, or never. A
    GET reads the register (a [Miss] reads it absent); a failed GET
    constrains nothing. *)
val linearizability_violations : entry list -> string list

val run : seed:int64 -> Workload.Traffic_spec.scenario -> result

(** [sweep ~jobs runs] runs each (seed, scenario) pair, fanned across up
    to [jobs] OCaml domains ({!Par_sweep}); results stay in the order of
    [runs], so they are identical for any [jobs]. *)
val sweep : jobs:int -> (int64 * Workload.Traffic_spec.scenario) list -> result list

(** The run's report: a line of scenario totals (KV counters, commit
    latency, availability gaps over the KV tenants, the protocol
    counters, event count, a traced
    run's attribution coverage, PASS or FAIL), then per tenant its
    whole-run and steady-state tallies (a KV tenant also its GET and PUT
    percentiles apart and its phase tags), the tail attribution of a
    traced run, and the violations. *)
val pp : Format.formatter -> result -> unit

(** The run's row. Per scenario: seed, KV issued/acked/failed, the Raft
    counters, [retransmits], [session_resets] and [rx_corrupt], commit
    P50/P99, [gap_windows] (summed) and [longest_gap_ms]
    over the KV tenants, the fault trace's digest [trace_digest], the
    event trace's [digest], [events], [analyzed_rpcs], [issued_rpcs],
    [coverage] (their ratio: the share of client RPCs the tail
    attribution covers, 0 when none were issued), [attribution] and
    [violations]. An untraced run writes
    null for [digest], [analyzed_rpcs], [coverage] and [attribution].
    Per tenant ([tenants]): the whole-run tally, the [steady] one (or
    null), phase [tags] over the whole run, the warmup and after it, GET
    and PUT P50/P99 apart (KV tenants), and the timeline. Every
    scenario's row has the same keys. *)
val to_json : result -> Obs.Json.t
