(** Key generators for KV workloads. *)

type t

(** Uniform over [0, n). *)
val uniform : n:int -> t

(** YCSB-style Zipfian over [0, n) with skew [theta] (0.99 is the YCSB
    default). Rank 0 is the hottest key. *)
val zipf : n:int -> theta:float -> t

(** [hot_shift ~base ~period_ns ~stride] rotates [base]'s keyspace by
    [stride] ranks every [period_ns] of simulation time: at time [t] the
    draw is [(draw_base + (t / period_ns) * stride) mod n]. Over a Zipfian
    base this moves the hot spot through the keyspace on a fixed schedule —
    the "hot key migrates" scenario cache layers and shard balancers must
    survive. The schedule is anchored at t = 0 and is a pure function of
    the timestamp, so all sources see the same hot key at the same time. *)
val hot_shift : base:t -> period_ns:int -> stride:int -> t

(** Size of the keyspace, [n]. *)
val space : t -> int

(** [next_at t rng ~now_ns] draws a key for an operation issued at
    simulation time [now_ns] (which only [hot_shift] inspects). *)
val next_at : t -> Sim.Rng.t -> now_ns:int -> int

(** Fixed-width printable key encoding (16 bytes by default, like the
    paper's 16 B keys): the decimal rendering of [k], zero-padded on the
    left to [width] bytes. [width] is a minimum, not a truncation: an id
    whose decimal rendering needs more than [width] digits yields a longer
    string — distinct ids always encode to distinct keys, but such
    overflowing keys break the fixed-length and lexicographic-order
    guarantees, so size the keyspace to fit (the default 16 covers ids up
    to 10^16 - 1; OCaml's max_int needs 19). Raises [Invalid_argument] on
    negative ids. *)
val encode : ?width:int -> int -> string

(** 64-bit FNV-1a of the key bytes, truncated to a non-negative int. A
    stable, seed-independent hash for key-to-partition placement, so
    clients and replicas agree on shard ownership by construction. *)
val fnv1a : string -> int
