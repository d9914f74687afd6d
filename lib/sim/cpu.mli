(** A simulated hardware thread (CPU timeline).

    End-host software costs are modeled by charging nanoseconds to a CPU: a
    thread that is busy until [next_free] cannot start new work earlier.
    This is what makes "messages per second per core" a meaningful measured
    quantity in the simulation: a core saturates at 1/cost. *)

type t

val create : Engine.t -> name:string -> t

(** Earliest time at which new work may start. *)
val next_free : t -> Time.t

(** [start_slice t] is [max (now, next_free)] — when work submitted now
    would actually begin executing. *)
val start_slice : t -> Time.t

(** [charge t ns] consumes [ns] nanoseconds of CPU starting at
    [start_slice t]; returns the completion time. *)
val charge : t -> int -> Time.t

(** Total busy nanoseconds accumulated. *)
val busy_ns : t -> int

(** Utilization in [0,1] over the window since creation (or since
    [reset_stats]). *)
val utilization : t -> float

val reset_stats : t -> unit
