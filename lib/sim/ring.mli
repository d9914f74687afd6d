(** Growable circular FIFO with a preallocated backing array.

    Unlike [Queue.t], steady-state push/take allocates nothing: elements
    live in an array that doubles on overflow, and vacated slots are reset
    to [dummy] so consumed elements are not pinned against GC. Used for
    the simulator's real packet queues: port egress queues and RX rings. *)

type 'a t

(** [create ~dummy ()] makes an empty ring. [dummy] pads unused slots and
    must never be interpreted as an element. *)
val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** Remove and return the oldest element. Raises [Invalid_argument] if
    empty. *)
val take : 'a t -> 'a

val take_opt : 'a t -> 'a option
val clear : 'a t -> unit
