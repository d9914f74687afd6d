(** Minimal JSON builder (no external dependency).

    It renders deterministically: object fields in the order given, floats
    via ["%.6g"]. *)

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
