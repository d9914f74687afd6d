(** A free-list of reusable objects: a stack that grows by doubling and
    allocates nothing once warm. An object not returned is simply left
    to the GC. *)

type 'a t

(** [create make] is an empty pool; [take] builds a fresh object with
    [make] when the pool is empty. *)
val create : (unit -> 'a) -> 'a t

val take : 'a t -> 'a

(** Return an object for reuse. It must not be in use, nor already in the
    pool. *)
val release : 'a t -> 'a -> unit
