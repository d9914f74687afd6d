(* Domain-parallel replication: fan independent seeded replications of
   existing experiments across OCaml domains (the [--jobs] flag on
   chaos/kv-chaos/cluster-load).

   Parallelism is per seed, never inside one simulation: each task
   builds its own engine, cluster and trace, so tasks share no mutable
   state ([Obs.Trace.disabled] is shared but never written). A shared atomic
   cursor deals tasks to workers, results land at their own index, and
   the caller receives them in task order — so reports and digests are
   identical to a sequential run, just computed on more cores. *)

let list ?(jobs = 1) n f =
  if n < 0 then invalid_arg "Par_sweep.list: negative task count";
  if jobs <= 1 || n <= 1 then Array.to_list (Array.init n f)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some (match f i with v -> Ok v | exception e -> Error e)
      done
    in
    let spawned = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end
