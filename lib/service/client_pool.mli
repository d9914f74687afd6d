(** Round-robin pool of {!Kv_client}s for open-loop load driving.

    One smart client per (host rpc x slot): operations are dispatched
    round-robin so concurrent open-loop arrivals spread across client ids
    (each with its own dedup sequence space and retry state) and across
    client hosts. Client ids are [base_client_id .. base_client_id +
    size - 1]; pools sharing a service must use disjoint id ranges for
    exactly-once dedup to stay sound. Dispatch order is deterministic, so
    same-seed runs issue the same operation on the same client. *)

type t

(** [create ~fabric ~map ~rpcs ~base_client_id ~clients_per_rpc ()] builds
    [Array.length rpcs * clients_per_rpc] clients, cycling hosts first so
    consecutive operations leave different hosts. *)
val create :
  fabric:Erpc.Fabric.t ->
  map:Shard_map.t ->
  rpcs:Erpc.Rpc.t array ->
  base_client_id:int ->
  clients_per_rpc:int ->
  unit ->
  t

val size : t -> int

(** Next pool slot's client, advancing the round-robin cursor: the
    client for the next operation. *)
val next_client : t -> Kv_client.t

(** {2 Aggregated stats} (summed over the pool) *)

val ok : t -> int
val deadline_exceeded : t -> int
val retries : t -> int
val redirects : t -> int
