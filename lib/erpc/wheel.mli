(** Timing wheel (Carousel, SIGCOMM '17): the rate limiter's data
    structure.

    Behaves as a fixed-granularity circular array of [num_slots] slots:
    entries are inserted at their scheduled transmission time and drained
    in slot order by [poll]. Entries beyond the horizon are clamped to the
    farthest slot — callers pick a horizon larger than the maximum pacing
    gap (MTU at the minimum Timely rate), so clamping is a safety net, not
    a steady-state path.

    The ring's order is kept in an int min-heap keyed by the slot at which
    the ring's cursor would deliver each entry, then by insertion order,
    so memory is proportional to the most entries pending at once, not to
    [num_slots]. Entries are ints (the RPC endpoint's index into its own
    table of paced packets): in steady state the wheel allocates nothing
    and stores no pointer. *)

type t

val create : slot_ns:int -> num_slots:int -> t

(** [insert t ~now ~at x] schedules [x] for time [at] (clamped to
    [now, now + horizon)). Entries scheduled in the past fire on the next
    poll. *)
val insert : t -> now:Sim.Time.t -> at:Sim.Time.t -> int -> unit

(** [poll t ~now f] delivers every entry whose slot time has been reached,
    in slot order (FIFO within a slot), and returns their count. *)
val poll : t -> now:Sim.Time.t -> (int -> unit) -> int

val pending : t -> int
