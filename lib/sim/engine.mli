(** Discrete-event simulation engine.

    An event is a handler and the one argument it is applied to, run in
    timestamp order (FIFO among equal timestamps). Passing a value as the
    argument, rather than capturing it in a closure, lets a component
    schedule one preallocated handler per packet it moves and allocate
    nothing. A single engine drives one experiment; all randomness comes
    from streams split off the engine's master RNG, so a given seed fully
    determines the run. *)

type t

(** The event queue is a {!Timing_wheel}. *)
val create : ?seed:int64 -> unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** Master RNG; use [Rng.split] to derive per-component streams. *)
val rng : t -> Rng.t

(** Engine-scoped event trace. Defaults to [Obs.Trace.disabled]; components
    cache this at creation time and guard hooks with [Obs.Trace.enabled],
    so install the trace (via [set_trace]) before building the cluster. *)
val trace : t -> Obs.Trace.t

val set_trace : t -> Obs.Trace.t -> unit

(** Engine-scoped metrics registry; components register counters, gauges
    and histograms into it at creation time. *)
val metrics : t -> Obs.Metrics.t

(** [schedule t at f] runs [f] at absolute time [at]. [at] must not be in
    the past. *)
val schedule : t -> Time.t -> (unit -> unit) -> unit

(** [schedule_after t delta f] runs [f] at [now t + delta]. *)
val schedule_after : t -> Time.t -> (unit -> unit) -> unit

(** [schedule_arg t at f a] runs [f a] at absolute time [at]. It takes the
    same place among same-time events as a [schedule] made at this point
    would. [at] must not be in the past. *)
val schedule_arg : t -> Time.t -> ('a -> unit) -> 'a -> unit

(** [schedule_after_arg t delta f a] runs [f a] at [now t + delta]. *)
val schedule_after_arg : t -> Time.t -> ('a -> unit) -> 'a -> unit

(** [reserve_seq t] takes the tie-break slot a [schedule] made now would
    get, without scheduling anything. *)
val reserve_seq : t -> int

(** [schedule_seq t at seq f] runs [f] at [at] in the place among
    same-time events that the reservation [seq] (from {!reserve_seq})
    holds. Scheduling later under an earlier reservation is how
    {!Timer} defers an event without changing execution order. [at] must
    not be in the past, and the key [(at, seq)] must not be before the
    event now executing. *)
val schedule_seq : t -> Time.t -> int -> (unit -> unit) -> unit

(** Execute the single earliest event. Returns [false] when no events
    remain. *)
val step : t -> bool

(** Run until the event queue is empty. *)
val run : t -> unit

(** Run events with timestamp <= the given horizon; the clock is advanced to
    the horizon afterwards. *)
val run_until : t -> Time.t -> unit

(** Number of events executed so far. *)
val events_processed : t -> int

(** Number of events pending. *)
val pending : t -> int
