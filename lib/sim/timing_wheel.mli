(** The engine's event queue: a calendar queue made of a timing wheel, an
    overflow heap and a cell free-list.

    Near-future events (within a ~16 us window of the last popped time) go
    into a 1 ns-granularity timing wheel with O(1) push and pop; far-future
    events wait in an overflow min-heap and migrate into the wheel as the
    window advances. Events pop strictly by [(time, seq)], where [seq] is
    the insertion order, so ties on the timestamp pop first-in first-out,
    including across the wheel/heap boundary, and a run is fully
    deterministic for a given seed. Cells are recycled through a
    free-list: steady-state push/pop allocates nothing.

    Invariant: the window start [base] is always a popped timestamp, so
    engine pushes — which are never before the clock — never land behind
    the window. A far push onto an idle queue (a 6 ms RTO, say) waits in
    the heap while the near events after it use the wheel; the window
    jumps to it only when it pops. The window used to re-anchor on the
    first push into an empty queue instead. On [small-rpc] that first
    push is a 6 ms RTO, so the window sat 6 ms ahead of the clock and
    2,117,810 of 2,118,713 pushes (seed 42) went through the heap; fixing
    it took [small-rpc] from 6.37 to 4.03 host us per op (median of 10
    runs, 2-vCPU host, seed 1729).

    Pushes behind the window are still correct (they wait in the heap and
    pop ahead of the wheel), so the structure is a general priority
    queue; they are just slow.

    Cells are a struct of arrays: a cell is an int index into parallel
    [time], [seq], [next], [id] and [arg] int arrays plus one pointer
    array, and slot heads and tails, the overflow heap and the free-list
    all hold ints. The arrays start at 1024 cells (engines here peak at a
    few hundred to about 1.5k pending events), double when the free-list
    runs dry and never shrink. With boxed cells, a push plus pop made
    about nine [caml_modify] write-barrier calls (free-list, payload,
    [next], head and tail stores); with int links only the payload and
    argument stores and their clears on pop went through it. On its own
    that took [incast] from 17.2 to 15.1 host us per op (medians of 5
    alternating pairs, 4 won; 2-vCPU host, [host_cores] = 2, seed 1729).
    An event is now an int id and an int argument, so an int event pays
    no barrier at all; only a pointer event ({!push_ptr}) stores a
    pointer, and a popped pointer is never retained.

    The next occupied slot is found in a three-level occupancy bitmap (32
    bits per word). Each level's lowest set bit is isolated with
    [x land -x] and named by a 32-entry de Bruijn table lookup, with no
    branch; the five-branch binary search it replaced was the wheel's
    hottest function (5-7% of profile samples) because the bit it
    searches for is random. Order and every simulated output are
    unchanged; [small-rpc] went from 4.56 to 4.00 host us per op and
    [incast] from 19.87 to 17.62 (medians of 10 alternating pairs, 10
    won each; 2-vCPU host, [host_cores] = 2, seed 1729). *)

(** A queue of events. Every event has an int id (>= 0) and an int
    argument; a pointer event also carries a value of type ['a]. The
    engine's ids name registered handlers and its arguments are the ints
    they are applied to, such as a packet handle; its pointer events are
    one-shot closures. *)
type 'a t

val create : unit -> 'a t
val length : 'a t -> int

(** [push t time id arg] queues an int event. It stores no pointer. *)
val push : 'a t -> Time.t -> int -> int -> unit

(** [push_ptr t time id x] queues a pointer event: [id] with argument 0,
    carrying [x]. [x] must be a heap block (a closure, a string, a
    record...), not an immediate such as an int or a constant
    constructor. *)
val push_ptr : 'a t -> Time.t -> int -> 'a -> unit

(** Events waiting in the overflow heap rather than the wheel: far-future
    events and any behind-the-window pushes. Backs the [sim.queue_overflow]
    gauge. *)
val overflow_length : 'a t -> int

(** [reserve_seq t] consumes the next tie-break sequence number, exactly
    as a [push] would, without queueing anything. *)
val reserve_seq : 'a t -> int

(** [push_seq t time seq id arg] queues an int event under the key
    [(time, seq)], where [seq] came from {!reserve_seq} on this queue and
    is used once. Provided the key is not before the last popped one, the
    event pops exactly where a [push] made at reservation time would have:
    this is how a deferred event keeps its place among same-time events.
    Inside the wheel window the cell is merged into its slot by [seq],
    like a cell migrating in from the overflow heap — including into the
    slot currently being drained. *)
val push_seq : 'a t -> Time.t -> int -> int -> int -> unit

(** Pop the earliest event, returning its time and id, or [None] if
    empty. Its argument is then {!last_arg}; a pointer it carried is
    dropped. *)
val pop : 'a t -> (Time.t * int) option

(** [pop_if_before t horizon] pops the earliest event if its time is
    [<= horizon] and returns its id; otherwise returns [-1] and leaves the
    queue untouched. Allocation-free — this is the engine's fused
    peek+pop. Read the popped event's timestamp with {!last_time}, its
    argument with {!last_arg} and its pointer with {!take_ptr}. *)
val pop_if_before : 'a t -> Time.t -> int

(** Argument of the most recently popped event. *)
val last_arg : 'a t -> int

(** [take_ptr t] returns the pointer of the pointer event the last
    {!pop_if_before} returned, and releases the queue's hold on it. Until
    then the event's cell stays out of use, so pushes in between are
    safe; the next pop releases a pointer that was never taken. Raises
    [Invalid_argument] if there is no such event, it carries no pointer,
    or its pointer was already taken. *)
val take_ptr : 'a t -> 'a

(** Timestamp of the most recently popped event. *)
val last_time : 'a t -> Time.t

val occupied_slots : 'a t -> int
(** Number of non-empty wheel slots (excludes the overflow heap) — the
    calendar-queue load factor backing the [sim.wheel_occupancy] gauge.
    O(bitmap words); intended for snapshot-time sampling, not hot paths. *)
