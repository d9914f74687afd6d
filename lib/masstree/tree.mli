(** Masstree-style ordered in-memory key-value store (Mao et al.,
    EuroSys '12) — the database index of paper §7.2.

    Implemented as a B+tree with linked leaves: point GETs descend the
    tree; SCANs walk the leaf chain, which is what makes the paper's
    128-key range sums cheap after the initial descent.

    [lookup_cost_ns]/[scan_cost_ns] model the CPU time of the operations
    when they run inside simulated RPC handlers. *)

type t

val create : unit -> t

val insert : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option

(** [scan t ~start ~n] returns up to [n] key-value pairs with key >=
    [start], in ascending order. *)
val scan : t -> start:string -> n:int -> (string * string) list

val size : t -> int
val depth : t -> int

(** Modeled handler cost (ns) of a point GET at the given tree depth. *)
val lookup_cost_ns : depth:int -> int

(** Modeled handler cost (ns) of scanning [n] keys at the given depth. *)
val scan_cost_ns : depth:int -> n:int -> int
