(** Growable circular FIFO of ints with a preallocated backing array.

    Unlike [Queue.t], steady-state push/take allocates nothing, and since
    the elements are ints no store goes through the GC write barrier.
    Used for the simulator's real packet queues, which hold packet
    handles: port egress queues, NIC RX rings and shared-memory rings. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

(** Remove and return the oldest element. Raises [Invalid_argument] if
    empty. *)
val take : t -> int
