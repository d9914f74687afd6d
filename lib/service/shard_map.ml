type t = {
  shards : int;
  replication : int;
  replica_hosts : int array;
  leaders : int option array;  (** hints, indexed by shard *)
}

let create ~shards ~replication ~replica_hosts =
  if replication > Array.length replica_hosts then
    invalid_arg "Shard_map.create: replication exceeds host count";
  assert (shards > 0 && replication > 0);
  { shards; replication; replica_hosts; leaders = Array.make shards None }

let shards t = t.shards
let replica_hosts t = t.replica_hosts

let group t ~shard =
  let n = Array.length t.replica_hosts in
  Array.init t.replication (fun i -> t.replica_hosts.((shard + i) mod n))

let shard_of_key t ~key = Workload.Keygen.shard ~shards:t.shards key

let shards_on t ~host =
  List.filter
    (fun s -> Array.exists (( = ) host) (group t ~shard:s))
    (List.init t.shards Fun.id)

let leader_hint t ~shard = t.leaders.(shard)
let set_leader_hint t ~shard ~host = t.leaders.(shard) <- Some host
let clear_leader_hint t ~shard = t.leaders.(shard) <- None

let clear_hints_for t ~host =
  Array.iteri (fun s l -> if l = Some host then t.leaders.(s) <- None) t.leaders
