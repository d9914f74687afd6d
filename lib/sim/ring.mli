(** Growable circular FIFO of ints with a preallocated backing array.

    Unlike [Queue.t], steady-state push/take allocates nothing, and since
    the elements are ints no store goes through the GC write barrier.
    Used for the simulator's real queues: NIC RX rings and shared-memory
    rings (packet handles), and port egress queues (packed departure
    times). *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

(** Remove and return the oldest element. Raises [Invalid_argument] if
    empty. *)
val take : t -> int

(** [get t i] is the [i]-th oldest element ([get t 0] is the next
    {!take}). Raises [Invalid_argument] unless [0 <= i < length t]. *)
val get : t -> int -> int
