(** One client operation, from issue to completion.

    A driver creates the record when it issues the operation and folds it
    into its tallies when the operation completes. A service client handed
    the record (see {!Service.Kv_client.put}) fills in the phase counters:
    how often the operation waited on something other than the server
    doing its work. An operation with every counter at zero is
    {e untagged}. *)

type result =
  | Pending  (** issued, not yet completed *)
  | Ok_  (** succeeded *)
  | Miss  (** succeeded with nothing to return: a GET of an absent key *)
  | Failed  (** transport error or missed deadline *)

type t = {
  mutable id : int;  (** issue order within its driver, from 0 *)
  mutable source : int;  (** the driver's source (arrival stream) that issued it *)
  mutable kind : int;  (** caller-defined kind, e.g. GET = 0, PUT = 1 *)
  mutable issued_ns : int;
  mutable done_ns : int;
  mutable result : result;
  mutable connect_waits : int;  (** attempts sent on a session still connecting *)
  mutable redirects : int;  (** leader redirects followed *)
  mutable election_backoffs : int;
      (** backoffs because no leader was known or it asked for a retry *)
  mutable error_backoffs : int;  (** backoffs after a transport error or attempt timeout *)
}

(** A [Pending] record of kind 0 with every counter at zero. *)
val create : id:int -> source:int -> issued_ns:int -> t

(** [reset t ~id ~source ~issued_ns] makes [t] what {!create} would
    return, for a driver that reuses records of completed operations. *)
val reset : t -> id:int -> source:int -> issued_ns:int -> unit

(** Phase names, in the order of {!phases}. *)
val phase_names : string array
