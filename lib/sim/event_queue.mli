(** Priority queue of timestamped events.

    Ties on the timestamp are broken by insertion order, so the engine is
    fully deterministic for a given seed.

    Two interchangeable implementations share this interface: the
    production {!Timing_wheel} (calendar queue with a cell free-list;
    steady-state scheduling allocates nothing) and the legacy {!Binheap}
    (the original boxed-entry binary heap, kept as reference oracle and
    pre-overhaul baseline for [bench-sim]). Both pop the exact same
    sequence for the same pushes, so traces are byte-identical across
    implementations. *)

type impl = Wheel | Binheap

(** Implementation used by [create] when [?impl] is not given. Defaults
    to [Wheel]; flipping it (e.g. around a benchmark or an A/B test) has
    no effect on observable event order. *)
val set_default_impl : impl -> unit

type 'a t

val create : ?impl:impl -> unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> Time.t -> 'a -> unit

(** [reserve_seq t] consumes the next tie-break sequence number without
    queueing anything; [push_seq t time seq payload] later queues an event
    under that [(time, seq)] key, and it pops exactly where a [push] made
    at reservation time would have. See {!Binheap.push_seq}. *)
val reserve_seq : 'a t -> int

val push_seq : 'a t -> Time.t -> int -> 'a -> unit

(** Earliest (time, event), or [None] if empty. *)
val pop : 'a t -> (Time.t * 'a) option

(** [pop_if_before t horizon ~default] pops and returns the earliest
    payload if its time is [<= horizon]; otherwise returns [default] and
    leaves the queue untouched. Allocation-free — this is the engine's
    fused peek+pop. Read the popped event's timestamp with {!last_time}. *)
val pop_if_before : 'a t -> Time.t -> default:'a -> 'a

(** Timestamp of the most recently popped event. *)
val last_time : 'a t -> Time.t

val peek_time : 'a t -> Time.t option
val clear : 'a t -> unit

val occupied_slots : 'a t -> int
(** Occupied calendar slots for the wheel (its load factor); falls back to
    {!length} for the binheap. Snapshot-time sampling only. *)
