(** Pull-based metrics registry.

    Components register named, labeled counters and gauges at creation
    time, as closures over their own state. Nothing is read until
    {!fold_counters} or {!max_gauge}, so registration costs the hot path
    nothing. It holds only sources something reads: the engine's
    [sim.queue_overflow] and [sim.wheel_occupancy] gauges, and the
    [port.tx_pkts], [nic.rx_dropped_no_desc] and [switch.buffer_max]
    sources the repo benchmark reads. Every other counter is read through
    its component's own accessor. *)

type t

val create : unit -> t

val counter : t -> name:string -> ?labels:(string * string) list -> (unit -> int) -> unit
val gauge : t -> name:string -> ?labels:(string * string) list -> (unit -> float) -> unit

val fold_counters : t -> name:string -> ('a -> (string * string) list -> int -> 'a) -> 'a -> 'a
(** Fold over the current values of every counter registered under [name]. *)

val max_gauge : t -> name:string -> float
(** Maximum current value over all gauges registered under [name]
    (0 if none). *)
