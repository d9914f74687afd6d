(** Domain-parallel replication runner: run [n] independent seeded tasks
    on up to [jobs] OCaml domains and return results in task order, so
    output is identical to a sequential run. Tasks must be self-contained
    (own engine, cluster, trace) — true of every [run_one] in this
    library. [jobs <= 1] runs inline with no domains spawned. A task
    exception is re-raised in the caller after all workers join. *)

val list : ?jobs:int -> int -> (int -> 'a) -> 'a list
