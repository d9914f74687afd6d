(** Declarative fault schedules: [at t, inject fault f (for duration d)].

    A schedule is data, not behavior — the {!Injector} compiles it into
    simulator events against a deployment. Keeping the two separate makes
    schedules printable, comparable and generatable from a seed, which is
    what the chaos suites' determinism contract is built on. *)

type fault =
  | Link_down of { host : int; down_ns : int }
      (** access link down, restored after [down_ns] *)
  | Link_flap of { host : int; period_ns : int; cycles : int }
      (** [cycles] down/up cycles: down for [period_ns / 2], up for the
          rest of each period *)
  | Partition of { tor_a : int; tor_b : int; heal_ns : int }
      (** sever the ToR pair, heal after [heal_ns] *)
  | Corrupt of { prob : float; duration_ns : int }
      (** per-delivery bit-corruption probability while active *)
  | Duplicate of { prob : float; duration_ns : int }
  | Reorder of { prob : float; max_delay_ns : int; duration_ns : int }
      (** bounded reordering: delayed packets are overtaken by later ones *)
  | Jitter of { host : int; extra_ns : int; duration_ns : int }
      (** delay spike on every delivery at [host] *)
  | Crash of { host : int; down_ns : int }
      (** crash-with-restart; the host loses all session state *)
  | Drop_nth of { n : int }  (** drop the n-th next delivery, counted from the event time *)

type event = { at_ns : int; fault : fault }
type t = event list

val fault_to_string : fault -> string

(** Distinct fault kinds present in the schedule. *)
val num_kinds : t -> int

(** Stable sort by injection time. *)
val sort : t -> t

(** [random ~seed ~horizon_ns ~events ~hosts ~tors] draws [events] faults
    with injection times in the first three quarters of [horizon_ns] and
    durations at most an eighth of it (so the run can quiesce). The result
    is a pure function of the arguments. *)
val random : seed:int64 -> horizon_ns:int -> events:int -> hosts:int -> tors:int -> t
