(** Minimal JSON builder and validator (no external dependency).

    The builder renders deterministically: object fields in the order
    given, floats via ["%.6g"]. The validator is a strict recursive-descent
    check used by tests and the [erpc_sim trace] smoke step. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

val escape_to : Buffer.t -> string -> unit

val float_repr : float -> string
(** Deterministic JSON number rendering of a float. *)

val validate : string -> bool
(** [validate s] is true iff [s] is one complete, well-formed JSON value
    (surrounding whitespace allowed). *)
