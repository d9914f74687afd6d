(** MICA-style in-memory key-value store (Lim et al., NSDI '14) — the
    store reused by the paper's replicated key-value service (§7.1).

    A lossless chained hash table with power-of-two bucket counts, FNV-1a
    hashing and amortized doubling. Implemented from scratch (no
    [Hashtbl]) because it is one of the substrates the paper builds on.

    [lookup_cost_ns]/[insert_cost_ns] give the modeled CPU cost used when
    a store operation runs inside a simulated RPC handler: a hash + one
    cache-miss-dominated bucket walk. *)

type t

(** An empty store of 64 buckets. *)
val create : unit -> t

val put : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option
val size : t -> int
val buckets : t -> int

(** Modeled handler cost of a GET (ns). *)
val lookup_cost_ns : int

(** Modeled handler cost of a PUT (ns). *)
val insert_cost_ns : int
