(** Fault-event trace with simulated-time stamps: a plain line log that
    keeps every entry.

    The determinism contract of the fault framework is expressed over
    traces: running the same schedule against the same seeded deployment
    must produce a byte-identical [to_string]. Both the {!Injector} (fault
    applications and reversions) and the scenario runner (leader crashes,
    KV completions, the quiesce line) write into the same trace. *)

type t

val create : unit -> t

val record : t -> at_ns:int -> string -> unit
(** Append the line ["<at_ns> <message>"]. *)

(** Every entry, one ["<ns> <message>\n"] line each, in recording order. *)
val to_string : t -> string
