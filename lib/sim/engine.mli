(** Discrete-event simulation engine.

    An event is a handler id and one int argument, run in timestamp order
    (FIFO among equal timestamps). A component registers each of its
    handlers once, at creation, with {!handler}, and then posts events
    that name the handler and carry an int — a packet handle, say — so
    the per-packet path stores no pointer in the event queue and
    allocates nothing. One-shot closures ({!schedule}) remain for
    everything off that path. A single engine drives one experiment; all
    randomness comes from streams split off the engine's master RNG, so a
    given seed fully determines the run. *)

type t

(** The simulator layer a handler belongs to, for the event census
    ({!counting}): ["netsim.link"] (a packet reaching the far end of a
    link: one event per packet hop, since ports compute departures in
    closed form), ["nic"], ["rpc"], ["shm"] and ["timer"]. One-shot
    closures count as ["closure"]. *)
type layer = Link | Nic | Rpc | Shm | Timer

(** A registered handler's id. *)
type handler = private int

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

(** Engine-scoped metrics registry; components register counters and
    gauges into it at creation time. The engine itself registers the
    [sim.wheel_occupancy] and [sim.queue_overflow] gauges; the per-layer
    event counts are {!counting}'s census. *)
val metrics : t -> Obs.Metrics.t

(** [handler t ~layer f] registers [f] and returns its id; an event
    posted to it runs [f arg]. Handlers are never unregistered, so
    register one per component, not one per event. *)
val handler : t -> layer:layer -> (int -> unit) -> handler

(** A handler id that raises [Invalid_argument] if an event posted to it
    runs: the initial value of a field that holds a component's handler
    until the component, which the handler needs, exists. *)
val no_handler : handler

(** [post t at h arg] runs handler [h] on [arg] at absolute time [at].
    [at] must not be in the past. *)
val post : t -> Time.t -> handler -> int -> unit

(** [post_after t delta h arg] runs [h arg] at [now t + delta]. *)
val post_after : t -> Time.t -> handler -> int -> unit

(** [schedule t at f] runs the one-shot closure [f] at absolute time
    [at]. It takes the same place among same-time events as a {!post}
    made at this point would. [at] must not be in the past. *)
val schedule : t -> Time.t -> (unit -> unit) -> unit

(** [schedule_after t delta f] runs [f] at [now t + delta]. *)
val schedule_after : t -> Time.t -> (unit -> unit) -> unit

(** [reserve_seq t] takes the tie-break slot a [post] made now would
    get, without scheduling anything. *)
val reserve_seq : t -> int

(** [post_seq t at seq h arg] runs [h arg] at [at] in the place among
    same-time events that the reservation [seq] (from {!reserve_seq})
    holds. Posting later under an earlier reservation is how {!Timer}
    defers an event without changing execution order. [at] must not be
    in the past, and the key [(at, seq)] must not be before the event now
    executing. *)
val post_seq : t -> Time.t -> int -> handler -> int -> unit

(** Run until the event queue is empty. *)
val run : t -> unit

(** Run events with timestamp <= the given horizon; the clock is advanced to
    the horizon afterwards. *)
val run_until : t -> Time.t -> unit

(** Number of events executed so far. *)
val events_processed : t -> int

(** What {!counting} saw of the engines created while its function ran. *)
type counted = {
  census : (string * int) list;
      (** the events they executed by layer, in a fixed order:
          ["netsim.link"], ["nic"], ["rpc"], ["shm"], ["timer"],
          ["closure"]; the counts sum to their {!events_processed} *)
  off_domain : bool;  (** some of them were created on another domain than the caller's *)
}

(** [counting f] runs [f] and returns its result with the summed
    census of every engine created while it ran, on any domain: the
    census of a whole experiment, however many engines it builds. Calls
    do not nest. *)
val counting : (unit -> 'a) -> 'a * counted

(** Number of events pending. *)
val pending : t -> int
