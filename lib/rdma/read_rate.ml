type result = {
  connections : int;
  rate_mops : float;
  miss_ratio : float;
}

let base_ns = 22.0
let miss_penalty_ns = 26.0

(* Reads timed per run. *)
let ops = 400_000

let run ?(seed = 7L) ~connections () =
  assert (connections > 0);
  let cache = Nic.Conn_cache.create_default () in
  let rng = Sim.Rng.create seed in
  (* Warm up the cache to steady state before measuring. *)
  for _ = 1 to min ops (4 * connections) do
    ignore (Nic.Conn_cache.access cache (Sim.Rng.int rng connections))
  done;
  Nic.Conn_cache.reset_stats cache;
  let total_ns = ref 0. in
  for _ = 1 to ops do
    let hit = Nic.Conn_cache.access cache (Sim.Rng.int rng connections) in
    total_ns := !total_ns +. base_ns +. (if hit then 0. else miss_penalty_ns)
  done;
  {
    connections;
    rate_mops = float_of_int ops /. !total_ns *. 1e3;
    miss_ratio = Nic.Conn_cache.miss_ratio cache;
  }
