(** Smart client for the sharded replicated-KV service.

    Owns a {!Shard_map}, routes each key to its Raft group, and drives
    every operation through a retry loop built for failover:

    - *redirects*: a [Not_leader] response with a leader hint re-targets
      the very next attempt (no backoff) and caches the hint in the map;
    - *retries*: transport errors, [Retry], and hintless [Not_leader]
      responses back off exponentially (base doubling per attempt, capped,
      plus seeded jitter) and rotate through the group's replicas;
    - *deadlines*: every operation carries an absolute deadline. A
      deadline event fires independently of any in-flight attempt, so an
      operation stuck on a half-open connection still completes (as
      [`Deadline]) on time — late attempt outcomes are discarded;
    - *exactly-once*: each operation is stamped with this client's id and
      a fresh sequence number; replicas deduplicate, so a PUT retried
      across leaders applies once no matter how many attempts raced.

    All asynchrony runs on the deployment's simulation engine; callbacks
    fire exactly once per operation. *)

type t

(** [create ~fabric ~rpc ~map ~client_id ()] — [client_id] must be unique
    across clients of the same service for dedup to be sound, and in
    [\[0, 2^31)] (replicas key applied writes by
    [(client_id lsl 32) lor seq]); other values raise [Invalid_argument].

    [?backoff_base_ns] (default 500 µs) and [?backoff_max_ns] (default
    8 ms) bound the retry backoff. *)
val create :
  fabric:Erpc.Fabric.t ->
  rpc:Erpc.Rpc.t ->
  map:Shard_map.t ->
  client_id:int ->
  ?backoff_base_ns:int ->
  ?backoff_max_ns:int ->
  ?attempt_timeout_ns:int ->
  (* per-attempt timeout (default 5 ms): bounds attempts wedged on a
     handshake to a dead host, which produce no transport error *)
  unit ->
  t

type error = [ `Deadline | `Failed of string ]

(** [put t ~key ~value ~deadline_ns ~cont] writes [value] (padded to the
    service's value size) under [key]. [deadline_ns] is relative to now.
    [cont] fires exactly once. Returns the operation's sequence number —
    [(client_id, seq)] identifies the write in replica logs.

    Just before [cont], the operation's phase counters are written into
    [record]: attempts sent on a session that was not yet connected,
    redirects followed, backoffs for want of a leader ([Not_leader]
    without a usable hint, [Retry]) and backoffs after a transport error
    or attempt timeout. *)
val put :
  ?record:Obs.Op.t ->
  t ->
  key:string ->
  value:string ->
  deadline_ns:int ->
  cont:((unit, error) result -> unit) ->
  int

(** [get t ~key ~deadline_ns ~cont] reads from the shard's current
    leader; [Ok None] is a confirmed miss. Returns the sequence number.
    [record] is as for {!put}. *)
val get :
  ?record:Obs.Op.t ->
  t ->
  key:string ->
  deadline_ns:int ->
  cont:((string option, error) result -> unit) ->
  int

(** {2 Stats} *)

val ok : t -> int
val deadline_exceeded : t -> int

(** Attempts re-issued after a backoff (errors/[Retry]). *)
val retries : t -> int

(** Immediate re-targets from [Not_leader] hints. *)
val redirects : t -> int

