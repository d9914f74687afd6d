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

    {!builtin} holds four scenarios: "steady-poisson" (small-RPC KV with
    uniform keys and small echo, both Poisson: the baseline the bursty
    scenarios are read against), "hot-key-shift" (a Zipf(0.99)-skewed KV
    tenant whose hot spot rotates through the keyspace every 25 ms, over a
    background echo tenant), "bursty-mixed" (on-off (MMPP-style) KV and
    small-echo tenants with synchronized burst windows, plus a
    large-transfer tenant whose 64 kB requests collide with the small-RPC
    tail) and "local-mesh" (a microservice-mesh echo tenant whose first
    two client hosts share machines with the echo servers, beside a remote
    KV tenant). Each takes [?scale] (default 1.0) multiplying every
    tenant's source count (floored at 1) and [?horizon_ms] (default 100.0)
    — CI smokes run scaled down, benchmarks at full scale. All four run on
    one traced 12-host layout without faults: replicas on ToRs 0-2, echo
    servers on ToR 3, clients on ToRs 4-5. *)

val builtin : (string * (?scale:float -> ?horizon_ms:float -> unit -> scenario)) list

(** Look up a builtin by scenario name. *)
val of_name : ?scale:float -> ?horizon_ms:float -> string -> scenario option

(** {2 kv-chaos: failover under a fault plan}

    One KV tenant on an untraced 10-host layout: six replica hosts across
    ToRs 0-2 carrying the Raft groups, two client hosts on ToR 3. Each
    client host issues one operation every 500 us for 300 ms, every fifth
    of its operations a GET, over 400 keys, with a 40 ms deadline; the
    timeline has 10 ms windows and the run settles for 80 ms. *)

(** Raft groups of every KV deployment (the runner's shard map). *)
val kv_shards : int

(** The fault plans, each inside the 300 ms horizon:
    - [Leader_crash]: crash the leader of shard [seed mod kv_shards] for
      30 ms at 60 ms, and of the next shard for 4 ms (below the failure
      detector's timeout) at 150 ms;
    - [Tor_partition]: sever ToRs 0-1 for 50 ms at 60 ms, then ToRs 1-2
      for 40 ms at 150 ms;
    - [Rolling_restart]: crash-restart every replica host in turn, 25 ms
      apart from 40 ms, down 8 or 4 ms;
    - [Hot_shard]: Zipf(0.99) keys, and at 70 ms a 30 ms crash of the
      leader of the shard that owns the hottest key. *)
type chaos_plan = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

(** [kv_chaos ~seed plan] is the kv-chaos scenario named after [plan]
    ("leader-crash", "tor-partition", "rolling-restart", "hot-shard"), or
    its fault-free baseline "none". *)
val kv_chaos : seed:int64 -> chaos_plan option -> scenario

(** [kv_chaos_suite ~seed ~seeds] is the kv-chaos sweep: run [i] has seed
    [40000 + 104729 i + (seed - 42)] and cycles through the four plans in
    the order above, so seed 42 gives the suite's historical runs. *)
val kv_chaos_suite : seed:int64 -> seeds:int -> (int64 * scenario) list

(** {2 echo-chaos: the wire protocol under random fault schedules}

    One echo tenant on a traced 10-host layout without replicas, where
    every host is both echo server and client: 120 32 B/32 B echoes, one
    every 375 us over 45 ms, each with its own slot, round robin over
    every (client, other host) session. The fault plan is
    {!Faults.Schedule.random}'s 12 events over the 60 ms of horizon and
    settle window, across the 10 hosts and 5 ToRs; a schedule mixing
    fewer than 4 fault kinds is redrawn from the seed plus 1,000,003, up
    to 100 times. *)

(** [echo_chaos ~seed] is the scenario "echo-chaos" with [seed]'s fault
    plan. *)
val echo_chaos : seed:int64 -> scenario

(** [echo_chaos_suite ~seed ~seeds]: run [i] has seed
    [1000 + 7919 i + (seed - 42)], so seed 42 gives the suite's
    historical schedules. *)
val echo_chaos_suite : seed:int64 -> seeds:int -> (int64 * scenario) list
