(** Chaos harness: seeded fault schedules against a live RPC workload.

    Each run deploys a two-tier CX4-style cluster, connects client sessions
    on every host, issues a staggered echo workload, compiles a random
    fault schedule (mixing at least four fault kinds) through
    {!Faults.Injector}, drains the simulation to quiescence and then checks
    the recovery invariants:

    - every issued request completes {e exactly} once ([Ok] or [Error]);
    - completed responses carry intact payloads (corruption was detected,
      never silently accepted);
    - no armed RTO timer survives quiescence;
    - every session's credits return to its credit limit;
    - request handlers ran at most once per issued request.

    Because retransmission is bounded, quiescence is guaranteed even when a
    peer crashes and never answers. Running the same seed twice must yield
    a byte-identical trace; [erpc_sim chaos --rerun] checks it. *)

type run_result = {
  seed : int64;
  issued : int;
  ok : int;
  failed : int;
  injected : int;  (** schedule events applied *)
  fault_kinds : int;  (** distinct fault kinds in the schedule *)
  retransmits : int;
  session_resets : int;
  rx_corrupt : int;  (** packets dropped by wire-checksum verification *)
  violations : string list;  (** empty iff all invariants held *)
  trace : string;
  events : int;  (** simulator events executed by the run *)
}

val run_one :
  ?hosts:int ->
  ?events:int ->
  ?requests:int ->
  ?horizon_ns:int ->
  seed:int64 ->
  unit ->
  run_result

(** [run_suite ~seeds ()] runs [seeds] schedules; schedule [i] has seed
    [1000 + 7919 i + (seed - 42)], so the default [seed] (42) keeps the
    suite's historical schedules. [~jobs] fans the seeds across that many
    OCaml domains via {!Par_sweep}; each seed is self-contained, and
    results are returned in seed order, so the report is identical for
    any [jobs]. *)
val run_suite :
  ?seed:int64 ->
  ?seeds:int ->
  ?hosts:int ->
  ?events:int ->
  ?requests:int ->
  ?horizon_ns:int ->
  ?jobs:int ->
  unit ->
  run_result list

val pp_run : Format.formatter -> run_result -> unit
