(** Failover-chaos harness for the sharded replicated-KV service.

    Each scenario runs through {!Kv_runner} on a CX4-like two-tier cluster
    — six replica hosts across three ToRs carrying four 3-way Raft groups,
    two client hosts on a fourth ToR — with a seeded open-loop PUT/GET mix
    (one operation every 500 µs per client host for 300 ms, every fifth a
    GET, over 400 keys) straight through a fault plan:

    - [Leader_crash]: crash the current leader of two groups mid-load
      (crash-with-restart, the second below the detection timeout);
    - [Tor_partition]: sever ToR pairs, isolating replicas from quorum;
    - [Rolling_restart]: crash-restart every replica host in sequence;
    - [Hot_shard]: Zipfian keys concentrating load on one group, whose
      leader then crashes.

    Reported per run: an availability timeline ({!Obs.Timeline}, 10 ms
    windows with per-window P50/P99), end-to-end tail latency, retry /
    redirect / drop / dedup counters, and the runner's service invariants.

    Determinism: the same seed reproduces a byte-identical fault trace;
    {!run_to_json} carries its digest, so [erpc_sim kv-chaos --rerun]
    checks it. *)

type scenario = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

type run_result = Kv_runner.result

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
