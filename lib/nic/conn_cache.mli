(** NIC connection-state cache (paper §4.1.2).

    RDMA NICs keep per-connection state (~375 B each) in ~2 MB of on-NIC
    SRAM shared with other structures, so only a few hundred connections fit
    before misses force DMA reads of connection state over PCIe. This LRU
    model is what produces Figure 1's throughput collapse. *)

type t

(** [create ~capacity_entries] — a cache holding that many connections. *)
val create : capacity_entries:int -> t

(** Mellanox-like defaults: usable SRAM / entry size — a few hundred
    entries. *)
val create_default : unit -> t

(** [access t conn] touches connection [conn]; returns [true] on hit. *)
val access : t -> int -> bool

val miss_ratio : t -> float
val resident : t -> int
val reset_stats : t -> unit
