(** Ring-buffered, sim-time-stamped event trace with a Chrome-trace/Perfetto
    JSON exporter.

    All timestamps are simulation time in nanoseconds, so two same-seed runs
    produce byte-identical traces. Recording is observe-only: it never
    schedules engine work. The shared {!disabled} trace has capacity zero;
    hot-path call sites guard instrumentation with
    [if Trace.enabled tr then ...] so disabled tracing costs one load and a
    branch, with no allocation. *)

type arg = I of int | F of float | S of string

type phase =
  | Instant
  | Complete of int  (** duration in ns *)
  | Counter

type ev = {
  ts : int;  (** sim-time, ns *)
  phase : phase;
  cat : string;
  name : string;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes an enabled trace holding up to [capacity] events
    (default 2^20); once full, the oldest events are evicted and counted in
    {!dropped}. [~capacity:0] yields a disabled trace. *)

val disabled : t
(** The shared no-op trace; every engine starts with it. *)

val enabled : t -> bool
val length : t -> int
val dropped : t -> int
(** Events evicted from the ring after it filled. *)

val fresh_id : t -> int
(** Stable per-trace id source (1, 2, ...); used to stamp packets so events
    from different layers can be joined. Always 0 on {!disabled}, which is
    shared (including across domains) and never mutated. *)

val net_pid : int
(** Chrome pid used for the network fabric (ports, switches, delivery). *)

val host_pid : int -> int
(** Chrome pid for host [h] ([h + 1]; pid 0 is the network). *)

val instant :
  t ->
  ts:int ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  (string * arg) list ->
  unit

val complete :
  t ->
  ts:int ->
  dur:int ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  (string * arg) list ->
  unit
(** A span: [ts] is the start, [dur] the duration, both in ns. *)

val counter :
  t -> ts:int -> cat:string -> name:string -> pid:int -> (string * arg) list -> unit
(** A counter sample; each numeric arg becomes a series on the counter
    track named [name] under process [pid]. *)

val register_process : t -> pid:int -> string -> unit
(** Name a Chrome process track. Idempotent per (pid, name). *)

val register_track : t -> pid:int -> string -> int
(** Allocate and name a thread track under [pid]; returns the tid.
    Allocation order is deterministic (1, 2, ... per pid). *)

val on_read : t -> (unit -> unit) -> unit
(** [on_read t f] runs [f] at the start of every read of [t] ({!events},
    {!iter}, {!digest}, {!to_chrome_string}), in registration order. A
    layer that records some events lazily (a port's departure samples,
    emitted when the departure settles) registers the function that
    records what is due, so no read misses them. A no-op on {!disabled}. *)

val events : t -> ev list
(** Buffered events, oldest first. *)

val digest : t -> string
(** Hex FNV-1a 64 digest over every buffered event's fields (plus the
    eviction count), rendered in ring order. Two traces digest equally iff
    their retained events are identical, making same-seed byte-identity
    checks cheap even for million-event traces where rendering the full
    Chrome JSON would dominate the run. *)

val to_chrome_string : t -> string
(** Render as Chrome-trace JSON ({["traceEvents"]} array plus track
    metadata), loadable in chrome://tracing or ui.perfetto.dev. Timestamps
    are microseconds with three decimal places, preserving ns resolution. *)

val write_chrome_file : t -> string -> unit
