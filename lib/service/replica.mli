(** Replica node of the sharded replicated-KV service (paper §7.1, grown
    from the single-group Raft-over-eRPC integration into a service).

    One [Replica.t] runs on each replica host and serves every Raft group
    the {!Shard_map} places there: per shard a Raft core, a MICA store,
    and a retry-dedup table keyed by (client id, sequence number) so a PUT
    that is retried by the smart client applies exactly once — the check
    runs both at submit (fast path: an already-applied retry is re-acked
    without a new log entry) and at apply (an already-applied duplicate
    log entry mutates nothing).

    Fault behavior:
    - leadership changes fire a Raft [notify] hook: pending client PUTs
      that can no longer commit here are failed over with [Retry] plus a
      leader hint, instead of hanging until the client's deadline;
    - a crash ({!Erpc.Fabric.crash_host}) drops all volatile state —
      stores, dedup tables, sessions, pending handles. Restart rebuilds
      each core from its surviving {!Raft.Core.stable} record (the modeled
      disk) and replays the committed log into a fresh store as the commit
      index is re-learned from the group;
    - Raft messages that cannot be sent because the peer is dead or the
      session is gone are *counted* ([raft_drops]) and traced, never
      silently dropped.

    Metrics (registered on the engine's registry): [service.raft_drops],
    [service.dedup_hits], [service.restarts] (counters, labeled by host)
    and [service.commit_ns] (histogram per host). *)

type t

(** [create ~fabric ~nexus ~rpc ~map ~host ()] builds the node and
    registers the service's two request handlers on [nexus]. Only call on
    hosts the map actually places shards on. *)
val create :
  fabric:Erpc.Fabric.t ->
  nexus:Erpc.Nexus.t ->
  rpc:Erpc.Rpc.t ->
  map:Shard_map.t ->
  host:int ->
  unit ->
  t

val host : t -> int

(** Shards this node replicates, ascending. *)
val shards : t -> int list

val is_leader : t -> shard:int -> bool

(** This node's Raft core for [shard]. Raises if the shard is not here. *)
val raft : t -> shard:int -> string Raft.Core.t

(** This node's store for [shard] (replays rebuild it after restarts). *)
val store : t -> shard:int -> Mica.Store.t

(** Commit latency (ns) of PUTs committed while this node led, all
    shards merged. *)
val commit_latencies : t -> Stats.Hist.t

(** Raft messages dropped because no peer session could carry them. *)
val raft_drops : t -> int

(** Duplicate (client id, seq) submissions and log entries suppressed. *)
val dedup_hits : t -> int

(** Crash-restart cycles this node has been through. *)
val restarts : t -> int

(** Observer invoked on every *effective* store application (duplicates
    excluded), with the incarnation that performed it — chaos harnesses
    use it to prove no write applies twice within an incarnation. *)
val set_on_apply :
  t -> (shard:int -> incarnation:int -> client_id:int -> seq:int -> unit) -> unit

(** Stop the periodic Raft driver so a finished experiment can drain its
    event queue. *)
val stop : t -> unit
