(** Simulated time, in integer nanoseconds.

    All simulation clocks in this repository use this representation: it is
    exact, totally ordered, and immune to floating-point drift over long
    runs. 63-bit nanoseconds cover ~292 years of simulated time. *)

type t = int

val zero : t
val ns : int -> t
val us : float -> t
val ms : float -> t
val s : float -> t

val to_us : t -> float
val to_ms : t -> float

val add : t -> t -> t
val sub : t -> t -> t

(** [of_bytes_at_gbps bytes gbps] is the serialization delay of [bytes]
    bytes on a link of [gbps] gigabits per second, rounded up to a whole
    nanosecond. *)
val of_bytes_at_gbps : int -> float -> t

val pp : Format.formatter -> t -> unit
