(** Shared dynamic switch buffer pool with dynamic-threshold admission.

    Models the shared SRAM buffer of shallow-buffered datacenter switches
    (e.g. 12 MB on Mellanox Spectrum): all ports draw from one pool, and a
    port may queue at most [alpha * remaining_free] bytes — the classic
    dynamic threshold (DT) algorithm. Because the pool is far larger than
    the network's BDP, BDP-limited flows essentially never overflow it,
    which is the key observation behind eRPC's loss-free common case. *)

type t

val create : capacity_bytes:int -> alpha:float -> t

val used : t -> int
val free : t -> int

(** [admit t ~port_queued_bytes ~size] applies DT admission: accept iff the
    port's post-enqueue occupancy stays below [alpha * free] and the pool
    has room. On success the bytes are reserved. [force] (lossless fabrics:
    PFC has already paused the sender rather than dropping) always
    admits. *)
val admit : ?force:bool -> t -> port_queued_bytes:int -> size:int -> bool

(** [release t size] frees [size] bytes now. *)
val release : t -> int -> unit

(** [release_at t ~at ~size] frees [size] bytes at time [at]: the release
    is held until a {!settle} passes [at]. Ports call it on admission with
    the packet's departure time, so the pool needs no event per packet.
    [size] must be below 2^16. *)
val release_at : t -> at:Sim.Time.t -> size:int -> unit

(** [settle t ~before] applies every held release due before [before].
    {!used}, {!free} and {!admit} see only settled releases, so a port
    settles the pool before it admits: a release due at the admission's
    own nanosecond still counts as occupied. *)
val settle : t -> before:Sim.Time.t -> unit

(** Occupancy at [now] with every release due at or before [now] counted,
    for readers (gauges, audits). It settles only what is due before
    [now], so reading never changes what a later admission in the same
    nanosecond sees. *)
val used_through : t -> Sim.Time.t -> int

(** High-water mark of pool occupancy. *)
val max_used : t -> int
