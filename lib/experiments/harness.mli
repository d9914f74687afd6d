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
    backend and offload toggle. *)

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

    The one client driver behind every eRPC microbenchmark. It keeps
    [window] requests in flight from [rpc], issued in batches of [batch]
    (a batch goes out only once [batch] buffer pairs are free), each to a
    session drawn uniformly from [sessions] with [rng]; without [rng],
    [sessions] holds exactly one session and no draw is made.
    [per_batch_cost_ns] charges [rpc]'s CPU once per batch, and
    [latencies] records the ns from issue to successful completion.

    Without [count] the driver keeps issuing for as long as the
    simulation runs. With [count] it issues exactly [count] requests in
    all: a window-1 driver with a count is a sequential run of [count]
    requests, each issued in the previous one's continuation. *)

type payload =
  | Echo of { req_size : int; resp_size : int }
      (** [req_size]-byte requests into [resp_size]-byte response buffers,
          through {!Erpc.Rpc.enqueue_request} (default 32 B / 32 B, to a
          {!register_echo} server) *)
  | Typed : 'a Codec.t * 'a -> payload
      (** the value under the codec, through {!Erpc.Typed.enqueue_request}
          with buffers of its encoded size under [rpc]'s codec backend, so
          (de)serialization is charged on the datapath (to a
          {!register_typed_echo} server) *)

type driver

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

(** Issue the first batches; later ones go out from completions. *)
val start_driver : driver -> unit

(** Requests whose continuation reported success. *)
val driver_completed : driver -> int

(** Simulated ns from the driver's first completion to its last, failed
    requests included. A sequential run that counts one warmup request
    times its other [count - 1] requests back to back. *)
val driver_span : driver -> int

(** Simulated ns from issue to completion of the request that completed
    (or failed) last. *)
val driver_last_latency : driver -> int

(** [run_driver d t ~slice_ms] runs [slice_ms]-millisecond slices of [d]
    until every one of [t]'s [count] requests has completed or failed, or
    [max_slices] (default: unbounded) slices have run. It stops at the
    end of the slice holding the [count]-th completion, so it never
    returns with a request still in flight unless [max_slices] cut it.
    Raises [Invalid_argument] if [t] has no count. *)
val run_driver : ?max_slices:int -> deployment -> driver -> slice_ms:float -> unit

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
