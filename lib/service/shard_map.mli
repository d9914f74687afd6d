(** Shard map: the client- and replica-shared view of data placement.

    Keys hash (FNV-1a) onto [shards] Raft groups; group [g] is replicated
    on [replication] consecutive hosts of the replica ring starting at
    offset [g], so with 6 hosts and 4 three-way groups every host serves
    1–3 groups and a single host failure degrades several groups without
    killing any — the standard chained-placement used by sharded stores.

    The map also carries *leader hints*: a smart client's best guess at
    each group's current leader, updated from [Not_leader] redirects and
    cleared when a host is observed failing. Hints are an optimization,
    never a correctness input — a stale hint costs one redirect. *)

type t

(** [create ~shards ~replication ~replica_hosts] places [shards] groups
    over the host ring. Requires [replication <= Array.length
    replica_hosts]. *)
val create : shards:int -> replication:int -> replica_hosts:int array -> t

val shards : t -> int

(** All replica hosts, in ring order. *)
val replica_hosts : t -> int array

(** Hosts replicating shard [shard], primary position first. *)
val group : t -> shard:int -> int array

(** The shard owning [key]. *)
val shard_of_key : t -> key:string -> int

(** Shards with a replica on [host], ascending. *)
val shards_on : t -> host:int -> int list

(** Current leader hint for [shard], if any. *)
val leader_hint : t -> shard:int -> int option

val set_leader_hint : t -> shard:int -> host:int -> unit
val clear_leader_hint : t -> shard:int -> unit

(** Forget every hint pointing at [host] (e.g. it was seen crashing). *)
val clear_hints_for : t -> host:int -> unit
