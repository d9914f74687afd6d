(** Pull-based metrics registry.

    Components register named, labeled sources at creation time — counters
    and gauges as closures over their own state, histograms as shared
    {!Stats.Hist.t} references. Nothing is sampled until {!snapshot}, so
    registration costs the hot path nothing. Snapshots are sorted by
    (name, labels), making reports deterministic. *)

type t

val create : unit -> t

val counter : t -> name:string -> ?labels:(string * string) list -> (unit -> int) -> unit
val gauge : t -> name:string -> ?labels:(string * string) list -> (unit -> float) -> unit
val histogram : t -> name:string -> ?labels:(string * string) list -> Stats.Hist.t -> unit
(** Registering an existing (name, labels) pair replaces the old source. *)

type sampled =
  | Sample_counter of int
  | Sample_gauge of float
  | Sample_hist of { count : int; mean : float; p50 : int; p99 : int; max : int }

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : sampled;
}

val snapshot : t -> sample list
(** Sample every source, sorted by (name, labels). *)

val find : t -> name:string -> labels:(string * string) list -> sample option

val fold_counters : t -> name:string -> ('a -> (string * string) list -> int -> 'a) -> 'a -> 'a
(** Fold over the current values of every counter registered under [name]. *)

val max_gauge : t -> name:string -> float
(** Maximum current value over all gauges registered under [name]
    (0 if none). *)

val to_json : t -> Json.t
