(** Availability timeline: fixed-width time windows counting operation
    outcomes, with a latency histogram per window.

    The scenario runner uses this to answer "was the service up *through*
    the fault?" rather than only "did it recover?": each completed
    operation is bucketed by completion time into a window (10 ms by
    default), and every window reports successes, failures, and P50/P99
    latency. A window with zero successes is an availability gap.

    Deterministic by construction: windows are pure functions of
    simulation timestamps, and the JSON export renders windows in time
    order with integer fields only. *)

type t

(** [create ~window_ns ~horizon_ns] covers [0, horizon_ns) with
    [horizon_ns / window_ns] (rounded up) windows. Samples past the
    horizon land in the last window. *)
val create : window_ns:int -> horizon_ns:int -> t

(** [ok t ~at_ns ~latency_ns] records a successful operation completing at
    [at_ns] with end-to-end latency [latency_ns]. *)
val ok : t -> at_ns:int -> latency_ns:int -> unit

(** A failed operation (error or deadline exceeded) at [at_ns]. *)
val fail : t -> at_ns:int -> unit

(** Number of windows with at least one attempt but zero successes —
    the blackout count an availability SLO bounds. *)
val gaps : t -> int

(** Longest run of consecutive gap windows, in ns. *)
val longest_gap_ns : t -> int

(** Per-window view: [(start_ns, ok, fail, p50_ns, p99_ns)]; percentiles
    are 0 for windows without successes. *)
val windows : t -> (int * int * int * int * int) list

(** [{"window_ns":..,"windows":[{"t_ns":..,"ok":..,"fail":..,
    "p50_ns":..,"p99_ns":..},..]}] *)
val to_json : t -> Json.t
