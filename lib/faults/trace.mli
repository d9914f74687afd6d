(** Fault-event trace with simulated-time stamps — a "faults"-category view
    over the unified {!Obs.Trace} event log.

    The determinism contract of the fault framework is expressed over
    traces: running the same schedule against the same seeded deployment
    must produce a byte-identical [to_string]. Both the {!Injector} (fault
    applications and reversions) and harnesses (request completions,
    invariant checkpoints) write into the same trace; because the type is
    an {!Obs.Trace.t}, the same buffer can simultaneously collect packet,
    sslot and CC events and export everything as one Chrome trace. *)

type t = Obs.Trace.t

val create : unit -> t
(** An enabled event trace of 2^16 events. *)

val record : t -> at_ns:int -> string -> unit
(** Record a fault event: an instant in category ["faults"]. *)

val length : t -> int
(** Number of fault entries (other categories are not counted). *)

(** Canonical one-entry-per-line rendering, used for byte equality. *)
val to_string : t -> string

