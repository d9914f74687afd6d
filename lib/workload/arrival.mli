(** Open-loop arrival-process generators.

    Each generator produces a strictly increasing sequence of arrival
    timestamps, independent of service completions — the defining property
    of open-loop load (requests keep coming whether or not the system keeps
    up, so queueing shows up as latency, not as reduced offered load).

    All randomness comes from the generator's own {!Sim.Rng.t} stream, so a
    given [(spec, seed)] pair always yields the same arrival sequence
    regardless of what else the simulation interleaves. Phase boundaries
    (on/off windows, ramp position) are pure functions of the timestamp, so
    two sources with the same spec but different seeds share synchronized
    bursts — the correlated behaviour that makes open-loop bursts hurt. *)

type spec =
  | Poisson of { rate_rps : float }
      (** Memoryless arrivals: exponential interarrival gaps with mean
          [1e9 /. rate_rps] ns. *)
  | On_off of { rate_rps : float; on_ns : int; off_ns : int }
      (** Bursty two-state (MMPP-style) source: Poisson at [rate_rps]
          during deterministic on-windows of [on_ns], silent for [off_ns],
          repeating with period [on_ns + off_ns] anchored at t = 0. The
          long-run mean rate is [rate_rps * duty] where
          [duty = on_ns / (on_ns + off_ns)]. *)
  | Ramp of { base_rps : float; peak_rps : float; period_ns : int }
      (** Diurnal rate ramp: inhomogeneous Poisson whose instantaneous
          rate follows a raised cosine from [base_rps] (at t = 0 mod
          period) up to [peak_rps] (at half period) and back, sampled by
          thinning against [peak_rps]. *)

type t

(** [make spec ~rng] instantiates a generator owning [rng]. Rates must be
    positive; on/off windows and the ramp period must be positive (and
    [peak_rps >= base_rps]). *)
val make : spec -> rng:Sim.Rng.t -> t

val spec : t -> spec

(** [next_after t ~now_ns] draws the next arrival time, strictly greater
    than [now_ns]. Feeding back the returned timestamp walks the arrival
    sequence; the sequence depends only on the spec, the rng stream, and
    the starting timestamp. *)
val next_after : t -> now_ns:int -> int

(** Analytic long-run mean rate of a spec, in arrivals per second — for
    sizing populations and sanity checks. *)
val mean_rate_rps : spec -> float

(** True iff a source with this spec can emit at [now_ns] (always true
    except inside an [On_off] off-window). *)
val active_at : spec -> now_ns:int -> bool
