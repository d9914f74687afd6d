(** Binary min-heap of timestamped events — the reference scheduler.

    Ties on the timestamp are broken by insertion order ([seq]), so a run
    is fully deterministic for a given seed. This is the original engine
    scheduler, kept as the oracle for property tests, cross-implementation
    byte-identity checks, and the pre/post comparison in [bench-sim]; the
    production scheduler is {!Timing_wheel}. Compared to the original it
    pads the backing array with an inert sentinel (popped entries no
    longer pin their closures against GC) and sizes the array at creation
    instead of re-checking on every push. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> Time.t -> 'a -> unit

(** [reserve_seq t] consumes the next tie-break sequence number, exactly
    as a [push] would, without queueing anything. *)
val reserve_seq : 'a t -> int

(** [push_seq t time seq payload] queues [payload] under the key
    [(time, seq)], where [seq] came from {!reserve_seq} on this queue and
    is used once. Provided the key is not before the last popped one, the
    event pops exactly where a [push] made at reservation time would have:
    this is how a deferred event keeps its place among same-time events. *)
val push_seq : 'a t -> Time.t -> int -> 'a -> unit

(** Earliest (time, event), or [None] if empty. *)
val pop : 'a t -> (Time.t * 'a) option

(** [pop_if_before t horizon ~default] pops and returns the earliest
    payload if its time is [<= horizon]; otherwise returns [default] and
    leaves the queue untouched. Allocation-free. Read the popped event's
    timestamp with {!last_time}. *)
val pop_if_before : 'a t -> Time.t -> default:'a -> 'a

(** Timestamp of the most recently popped event. *)
val last_time : 'a t -> Time.t

val peek_time : 'a t -> Time.t option
val clear : 'a t -> unit
