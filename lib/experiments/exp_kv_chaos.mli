(** Failover-chaos harness for the sharded replicated-KV service.

    Deploys {!Service} on a CX4-like two-tier cluster — six replica hosts
    across three ToRs carrying four 3-way Raft groups, two client hosts
    running smart clients — waits for every group to elect, then drives a
    seeded open-loop PUT/GET mix straight through a fault scenario:

    - [Leader_crash]: crash the current leader of two groups mid-load
      (crash-with-restart, the second below the detection timeout);
    - [Tor_partition]: sever ToR pairs, isolating replicas from quorum;
    - [Rolling_restart]: crash-restart every replica host in sequence;
    - [Hot_shard]: Zipfian keys concentrating load on one group, whose
      leader then crashes.

    Reported per run: an availability timeline ({!Obs.Timeline}, 10 ms
    windows with per-window P50/P99), end-to-end tail latency, retry /
    redirect / drop / dedup counters, and the service invariants —

    - no acknowledged write lost: every client-acked (client id, seq) is
      in the committed log of *all* its group's replicas;
    - no write applied twice: the per-incarnation apply observer saw each
      (client id, seq) mutate a store at most once, despite retries;
    - convergence: per group, equal commit indexes, byte-equal committed
      logs, fully applied, and every replica's store byte-equal to a
      dedup-replay of the committed log.

    Determinism: the same seed reproduces a byte-identical fault trace;
    {!run_to_json} carries its digest, so [erpc_sim kv-chaos --rerun]
    checks it. *)

type scenario = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

type run_result = {
  seed : int64;
  scenario : scenario;
  issued : int;
  acked : int;  (** client-visible successes (PUT acks + GET replies) *)
  failed : int;  (** deadline-exceeded operations *)
  retries : int;
  redirects : int;
  raft_drops : int;  (** Raft sends suppressed while peers were down *)
  dedup_hits : int;  (** duplicate submissions/entries suppressed *)
  restarts : int;  (** replica crash-restart cycles observed *)
  p50_us : float;
  p99_us : float;
  tagged : int array;
      (** operations that carry each phase tag, in {!Obs.Op.phase_names}
          order (printed as [tags=a/b/c/d]) *)
  untagged_p999_us : float;  (** P99.9 of the successes that carry no tag *)
  commit_p50_us : float;  (** leader commit latency, all groups merged *)
  commit_p99_us : float;
  gap_windows : int;  (** 10 ms windows with attempts but zero successes *)
  longest_gap_ms : float;
  violations : string list;
  trace : string;  (** canonical fault-trace rendering (byte-comparable) *)
  timeline : Obs.Json.t;
  events : int;
}

val run_one : ?scenario:scenario -> seed:int64 -> unit -> run_result

(** [run_suite ~seeds ()] runs [seeds] schedules (default 20) cycling
    through the four scenarios; schedule [i] has seed
    [40000 + 104729 i + (seed - 42)], so the default [seed] (42) keeps
    the suite's historical schedules. [~jobs] fans the seeds across that
    many OCaml domains; results stay in seed order, so the report is
    identical for any [jobs]. *)
val run_suite : ?seed:int64 -> ?seeds:int -> ?jobs:int -> unit -> run_result list

val pp_run : Format.formatter -> run_result -> unit

(** One run as JSON: totals, invariants, timeline and the digest of its
    fault trace. *)
val run_to_json : run_result -> Obs.Json.t

(** The no-fault baseline for the bench trajectory: commit latency and
    availability with no chaos, as
    [{"commit_p50_us":..,"commit_p99_us":..,"client_p50_us":..,
      "client_p99_us":..,"acked":..,"gap_windows":..}]. *)
val baseline_json : ?seed:int64 -> unit -> Obs.Json.t
