(** Calendar-queue scheduler: timing wheel + overflow heap + cell free-list.

    Near-future events (within a ~16 us window of the last popped time) go
    into a 1 ns-granularity timing wheel with O(1) push and pop; far-future
    events wait in an overflow min-heap and migrate into the wheel as the
    window advances. Ties on the timestamp are broken by insertion order
    ([seq]) exactly as in {!Binheap}, including across the wheel/heap
    boundary, so the two implementations pop identical sequences. Cells
    are recycled through a free-list: steady-state push/pop allocates
    nothing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> Time.t -> 'a -> unit

(** See {!Binheap.reserve_seq}. *)
val reserve_seq : 'a t -> int

(** See {!Binheap.push_seq}. Inside the wheel window the cell is merged
    into its slot by [seq], like a cell migrating in from the overflow
    heap — including into the slot currently being drained. *)
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

val occupied_slots : 'a t -> int
(** Number of non-empty wheel slots (excludes the overflow heap) — the
    calendar-queue load factor backing the [sim.wheel_occupancy] gauge.
    O(bitmap words); intended for snapshot-time sampling, not hot paths. *)
