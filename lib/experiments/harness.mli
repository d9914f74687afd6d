(** Shared machinery for the paper's experiments: deployments, echo
    servers, the client driver, and the replicated-KV bootstrap. *)

type deployment = {
  fabric : Erpc.Fabric.t;
  cluster : Transport.Cluster.t;
  nexuses : Erpc.Nexus.t array;  (** one per host *)
  rpcs : Erpc.Rpc.t array array;  (** [rpcs.(host).(thread)] *)
}

(** Build a fabric and one Nexus per host with [threads_per_host] Rpcs
    each. [register] is called on each Nexus to install request handlers
    before any Rpc is created. *)
val deploy :
  ?seed:int64 ->
  ?config:Erpc.Config.t ->
  ?cost:Erpc.Cost_model.t ->
  ?trace:Obs.Trace.t ->
  ?workers_per_host:int ->
  ?register:(Erpc.Nexus.t -> unit) ->
  Transport.Cluster.t ->
  threads_per_host:int ->
  deployment

(** Advance simulated time by [ms] milliseconds. *)
val run_ms : deployment -> float -> unit

(** Advance simulated time by [us] microseconds. *)
val run_us : deployment -> float -> unit

(** The standard echo request handler used by microbenchmarks: responds
    with [resp_size] bytes (default: the request's size). *)
val echo_req_type : int

val register_echo : ?req_type:int -> ?resp_size:int -> Erpc.Nexus.t -> unit

(** Connect [rpc] to a remote Rpc and run the handshake to completion.
    Raises on failure. *)
val connect :
  deployment -> Erpc.Rpc.t -> remote_host:int -> remote_rpc_id:int -> Erpc.Session.session

(** {2 Typed workloads}

    Schema-driven counterparts of the echo workload: the server decodes
    the request and re-encodes it as the response through {!Erpc.Typed},
    charging modeled (de)serialization per the endpoint's configured codec
    backend. *)

(** Benchmark schemas, both flat-capable: [schema_fixed] is all
    fixed-width (24 wire bytes, 3 leaves); [schema_var] carries a
    variable-length payload in a 64-byte bounded field. *)
val schema_fixed : ((int * int) * string) Codec.t

val value_fixed : (int * int) * string
val schema_var : (int * string) Codec.t
val value_var : int * string

(** Install a typed echo handler: decode with [codec], respond with the
    decoded value re-encoded. *)
val register_typed_echo : ?req_type:int -> 'a Codec.t -> Erpc.Nexus.t -> unit

(** {2 Client driver}

    The one client driver behind every experiment. It paces requests and
    hands each one, as an {!Obs.Op.t} record, to a {!send} hook that
    issues it. It counts issued, shed, succeeded and failed operations and
    folds each completed record into a {!tally} and, optionally, an
    {!Obs.Timeline} (at its time since the driver started). A driver has
    [slots] operations in flight at most, each with its own record, which
    is reused once its operation completes.

    - {e Closed loop}: every slot busy, requests issued in batches of
      [batch] once [batch] slots are free, [count] in all ([max_int]: for
      as long as the simulation runs). A one-slot driver with a count is a
      sequential run, each request issued in the previous one's
      continuation.
    - {e Open loop}: every source's arrivals are scheduled when the driver
      starts, in source order, whatever the completions; an arrival that
      finds every slot busy is shed. *)

type payload =
  | Echo of { req_size : int; resp_size : int }
      (** [req_size]-byte requests into [resp_size]-byte response buffers,
          through {!Erpc.Rpc.enqueue_request} (default 32 B / 32 B, to a
          {!register_echo} server) *)
  | Typed : 'a Codec.t * 'a -> payload
      (** the value under the codec, through {!Erpc.Typed.enqueue_request}
          with buffers of its encoded size under the first endpoint's codec
          backend (to a {!register_typed_echo} server) *)

(** [send op k] issues [op], sets [op.kind] if the driver counts several
    kinds, and calls [k] with its result exactly once, from a later event
    ([k] raises [Invalid_argument] if called again before the record is
    reused). *)
type send = Obs.Op.t -> (Obs.Op.result -> unit) -> unit

val ok_or_failed : ('a, 'e) result -> Obs.Op.result

(** [Miss] for a GET of an absent key. *)
val of_get : (string option, 'e) result -> Obs.Op.result

(** The stock eRPC hook. Each request goes to an endpoint drawn uniformly
    with [rng], or without it the next one round robin. [prepare op req]
    fills an [Echo] request and returns its request type (default:
    [req_type]). *)
val erpc_send :
  ?payload:payload ->
  ?req_type:int ->
  ?prepare:(Obs.Op.t -> Erpc.Msgbuf.t -> int) ->
  ?rng:Sim.Rng.t ->
  (Erpc.Rpc.t * Erpc.Session.session) array ->
  send

(** One open-loop source's arrival instants, in ns after the start. *)
type arrivals =
  | Process of { spec : Workload.Arrival.spec; until_ns : int }
      (** those before [until_ns], drawn with a split of the engine's rng *)
  | Every of { gap_ns : int; count : int }  (** [0, gap_ns, .., (count - 1) gap_ns] *)

type pace = Closed of { batch : int; count : int } | Open of arrivals array

(** Per-kind histograms are indexed by {!Obs.Op.t.kind}, per-phase
    counts follow {!Obs.Op.phase_names}. *)
type tally = private {
  mutable issued : int;
  mutable shed : int;
  mutable ok : int;  (** successes, misses included *)
  mutable misses : int;
  mutable failed : int;
  lat : Stats.Hist.t array;  (** per kind: ns from issue to success *)
  tagged : int array;  (** per phase: completed operations with that counter above 0 *)
  untagged : Stats.Hist.t;  (** ns from issue to success of untagged operations *)
  mutable redirects : int;
  mutable backoffs : int;  (** election and error backoffs *)
}

type driver

(** [latencies] holds one histogram per kind (default: one). With
    [warmup_ns], a second tally counts the operations issued or shed
    [warmup_ns] or more after the start. *)
val driver :
  ?latencies:Stats.Hist.t array ->
  ?timeline:Obs.Timeline.t ->
  ?warmup_ns:int ->
  engine:Sim.Engine.t ->
  slots:int ->
  pace ->
  send ->
  driver

(** A closed-loop {!erpc_send} driver with [window] slots, from [rpc]
    over [sessions] (exactly one session without [rng]);
    [per_batch_cost_ns] charges [rpc]'s CPU once per batch. *)
val make_driver :
  ?latencies:Stats.Hist.t ->
  ?payload:payload ->
  ?batch:int ->
  ?per_batch_cost_ns:int ->
  ?req_type:int ->
  ?count:int ->
  ?rng:Sim.Rng.t ->
  rpc:Erpc.Rpc.t ->
  sessions:Erpc.Session.session array ->
  window:int ->
  unit ->
  driver

(** Closed loop: issue the first batches. Open loop: schedule every
    arrival. *)
val start_driver : driver -> unit

(** Requests that succeeded. *)
val driver_completed : driver -> int

(** Simulated ns from the driver's first completion to its last, failed
    requests included. A sequential run that counts one warmup request
    times its other [count - 1] requests back to back. *)
val driver_span : driver -> int

(** Simulated ns from issue to completion of the request that completed
    (or failed) last. *)
val driver_last_latency : driver -> int

val driver_tally : driver -> tally

(** The post-warmup tally, if the driver has a warmup. *)
val driver_steady : driver -> tally option

(** [run_driver d t ~slice_ms] runs [slice_ms]-millisecond slices of [d]
    until every one of [t]'s [count] requests has completed or failed, or
    [max_slices] (default: unbounded) slices have run. It stops at the
    end of the slice holding the [count]-th completion. Raises
    [Invalid_argument] unless [t] is closed-loop with a count. *)
val run_driver : ?max_slices:int -> deployment -> driver -> slice_ms:float -> unit

(** [{"connect_wait": n, ..}] *)
val tags_json : int array -> Obs.Json.t

(** Percentile [p] in µs; 0 for an empty histogram. *)
val us_at : Stats.Hist.t -> float -> float

(** One histogram with the samples of all. *)
val merged : Stats.Hist.t array -> Stats.Hist.t

(** {2 Replicated KV}

    [start_replicas d ~map] creates one {!Service.Replica} on thread 0 of
    each of [map]'s replica hosts (the array is indexed like
    {!Service.Shard_map.replica_hosts}), then runs 5 ms slices, at most
    100, until every shard has a leader. The flag says whether every
    shard elected. *)
val start_replicas :
  deployment -> map:Service.Shard_map.t -> Service.Replica.t array * bool

(** [sum_stats d f] sums [f] over the stats of every Rpc of [d]. *)
val sum_stats : deployment -> (Erpc.Rpc_stats.t -> int) -> int

(** Sum of completed client RPCs across all threads of a deployment. *)
val total_completed : deployment -> int
