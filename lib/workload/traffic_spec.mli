(** Multi-tenant traffic specifications: populations of open-loop sources
    composed from {!Arrival} processes and {!Keygen} key streams.

    A {!tenant} models one simulated user population: [sources] independent
    arrival streams (each its own rng split, all sharing the tenant's
    arrival spec and so phase-synchronized on bursts), a key stream, and
    the service the traffic targets — small echo RPCs, large transfers, or
    the replicated-KV service. A {!scenario} is a named set of tenants plus
    a measurement horizon; {!builtin} provides the three standard cluster
    scenarios the SLO harness reports against. Specs are pure data:
    instantiation (rng splits, session pools) is the experiment's job. *)

type service =
  | Echo of { req_size : int; resp_size : int }
      (** Closed echo RPC against the harness echo handler: [req_size]
          bytes out, [resp_size] back. Multi-MTU sizes model large
          transfers. *)
  | Kv of { get_pct : int }
      (** Replicated-KV traffic: each arrival is a GET with probability
          [get_pct]% (else a PUT) against the sharded Raft service. *)

type tenant = {
  tname : string;
  sources : int;  (** independent open-loop arrival streams *)
  arrival : Arrival.spec;  (** per-source arrival process *)
  keygen : Keygen.t;  (** key stream ([Kv] tenants only) *)
  service : service;
  max_outstanding : int;
      (** client-side concurrency cap: arrivals beyond it are shed (counted,
          not issued) so one overloaded tenant cannot exhaust msgbufs *)
}

type scenario = { sname : string; tenants : tenant list; horizon_ns : int }

(** Aggregate long-run offered load of a tenant, in requests per second. *)
val offered_rps : tenant -> float

(** {2 Standard scenarios}

    Each takes [?scale] (default 1.0) multiplying every tenant's source
    count (floored at 1) and [?horizon_ms] (default 100.0) — CI smokes run
    scaled down, benchmarks at full scale. Besides the two below,
    {!builtin} holds "steady-poisson" (small-RPC KV with uniform keys and
    small echo, both Poisson: the baseline the bursty scenarios are read
    against) and "hot-key-shift" (a Zipf(0.99)-skewed KV tenant whose hot
    spot rotates through the keyspace every 25 ms, over a background echo
    tenant). *)

(** "bursty-mixed": on-off (MMPP-style) KV and small-echo tenants with
    synchronized burst windows, plus a large-transfer tenant whose 64 kB
    requests collide with the small-RPC tail. *)
val bursty_mixed : ?scale:float -> ?horizon_ms:float -> unit -> scenario

val builtin : (string * (?scale:float -> ?horizon_ms:float -> unit -> scenario)) list

(** Look up a builtin by scenario name. *)
val of_name : ?scale:float -> ?horizon_ms:float -> string -> scenario option
