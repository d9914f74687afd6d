(** Multi-tenant traffic specifications: populations of open-loop sources
    composed from {!Arrival} processes and {!Keygen} key streams, on a
    cluster layout, with an optional fault plan.

    A {!tenant} models one simulated user population: [sources] independent
    arrival streams (each its own rng split, all sharing the tenant's
    arrival spec and so phase-synchronized on bursts), a key stream, and
    the service the traffic targets — small echo RPCs, large transfers, or
    the replicated-KV service. A {!scenario} is a named set of tenants on a
    {!layout}, with a measurement horizon and a plan of {!fault}s;
    {!builtin} provides the standard cluster scenarios the SLO harness
    reports against. Specs are pure data: instantiation (rng splits,
    session pools) is the experiment's job. *)

type arrival =
  | Process of Arrival.spec  (** each source draws its own instants *)
  | Every of int  (** one arrival every this many ns, the first at the start *)

(** How a KV tenant picks its operations and PUT values. Both kinds of
    PUT value are unique within a run. *)
type kv_mix =
  | Get_pct of int
      (** One key stream for the tenant: each operation draws its key,
          then is a GET with this probability in percent, else a PUT of
          ["t<tenant index>-<op id + 1>"] (8 digits). *)
  | Get_every of int
      (** One key stream per client: the [j]-th operation (from 0) of a
          client is a GET when [j mod n = n - 1], else a PUT of
          ["c<client id>-<j>"] (6 digits). *)

type service =
  | Echo of { req_size : int; resp_size : int }
      (** Closed echo RPC against the harness echo handler: [req_size]
          bytes out, [resp_size] back. Multi-MTU sizes model large
          transfers. *)
  | Kv of { keygen : Keygen.t; mix : kv_mix; deadline_ns : int }
      (** Replicated-KV traffic against the sharded Raft service over
          [keygen]'s keys, each operation with [deadline_ns] to complete. *)

type tenant = {
  tname : string;
  sources : int;  (** independent open-loop arrival streams *)
  arrival : arrival;  (** per-source arrival process *)
  service : service;
  max_outstanding : int;
      (** client-side concurrency cap: arrivals beyond it are shed (counted,
          not issued) so one overloaded tenant cannot exhaust msgbufs *)
}

(** Hosts of a CX4 two-tier cluster (2 hosts per ToR). The KV replicas
    run on [replica_hosts], echo servers on [echo_hosts]; every tenant
    issues from [client_hosts], with one KV client per host. *)
type layout = {
  nodes : int;
  replica_hosts : int array;
  echo_hosts : int array;
  client_hosts : int array;
  colocated : int list list;
      (** groups of hosts sharing one machine; when any is given, the
          shared-memory transport carries their sessions *)
}

(** One event of a scenario's fault plan, timed from the start. *)
type fault =
  | Scheduled of Faults.Schedule.event  (** a static fault *)
  | Crash_leader of { at_ns : int; shard : int; down_ns : int }
      (** crash whoever leads [shard] when the event fires, for [down_ns] *)

type scenario = {
  sname : string;
  layout : layout;
  tenants : tenant list;
  horizon_ns : int;  (** arrivals fall in [0, horizon_ns) *)
  window_ns : int;  (** availability-timeline window *)
  settle_ns : int;  (** run on after the horizon before the replicas stop *)
  traced : bool;
      (** record the event trace: the run's digest and tail attribution
          come from it *)
  faults : fault list;  (** the fault plan; empty for none *)
}

(** Aggregate long-run offered load of a tenant, in requests per second. *)
val offered_rps : tenant -> float

(** {2 Standard scenarios}

    Each takes [?scale] (default 1.0) multiplying every tenant's source
    count (floored at 1) and [?horizon_ms] (default 100.0) — CI smokes run
    scaled down, benchmarks at full scale. All four run on one traced
    12-host layout without faults: replicas on ToRs 0-2, echo servers on
    ToR 3, clients on ToRs 4-5. Besides the one below, {!builtin} holds
    "steady-poisson" (small-RPC KV with uniform keys and small echo, both
    Poisson: the baseline the bursty scenarios are read against),
    "hot-key-shift" (a Zipf(0.99)-skewed KV tenant whose hot spot rotates
    through the keyspace every 25 ms, over a background echo tenant) and
    "local-mesh" (a microservice-mesh echo tenant whose first two client
    hosts share machines with the echo servers, beside a remote KV
    tenant). *)

(** "bursty-mixed": on-off (MMPP-style) KV and small-echo tenants with
    synchronized burst windows, plus a large-transfer tenant whose 64 kB
    requests collide with the small-RPC tail. *)
val bursty_mixed : ?scale:float -> ?horizon_ms:float -> unit -> scenario

val builtin : (string * (?scale:float -> ?horizon_ms:float -> unit -> scenario)) list

(** Look up a builtin by scenario name. *)
val of_name : ?scale:float -> ?horizon_ms:float -> string -> scenario option
