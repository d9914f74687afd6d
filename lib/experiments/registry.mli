(** The experiment registry: one run path and one result envelope for
    every [erpc_sim] experiment.

    An entry turns a seed and its own parameters into an {!outcome}. The
    registry runs it, counts the events of every engine the run created
    ({!Sim.Engine.counting}), times it, optionally runs it a second time
    to check that the same seed reproduces the same digest and census,
    and renders the versioned envelope that [--json] prints and
    [--out FILE] writes. *)

type outcome = {
  rows : Obs.Json.t list;  (** simulated results; the digest covers exactly these *)
  report : string;  (** human-readable text, printed unless [--json] *)
  violations : string list;  (** empty on a clean run *)
  host : (string * Obs.Json.t) list;
      (** wall-clock measurements (codec ns/op, host seconds), kept out of
          the digest *)
}

type 'p entry = {
  name : string;  (** the subcommand, and the envelope's ["experiment"] *)
  doc : string;
  benchmark : string;  (** the envelope's ["benchmark"] key *)
  unit : string;  (** the envelope's ["unit"] key *)
  params : 'p -> (string * Obs.Json.t) list;  (** the envelope's ["params"] *)
  run : seed:int64 -> 'p -> outcome;
}

type result = {
  experiment : string;
  benchmark : string;
  unit : string;
  seed : int64;
  params : (string * Obs.Json.t) list;
  outcome : outcome;
  digest : string;  (** MD5 (hex) of the canonical JSON of [outcome.rows] *)
  census : (string * int) list;  (** events by layer, over every engine the run built *)
  events : int;  (** sum of [census] *)
  cpu_s : float;  (** process CPU seconds ([Sys.time]; sums across domains) *)
  wall_s : float;  (** elapsed real seconds, read from the caller's clock *)
  minor_words_per_event : float option;
      (** this domain's minor-heap words per event; [None] (written [null])
          when the run created an engine on another domain, whose
          allocations this domain's counter does not see *)
  peak_heap_mb : float;
      (** the process's largest major heap so far, in MiB
          ([Gc.quick_stat]'s [top_heap_words]) *)
  violations : string list;  (** the outcome's, then any [~rerun] mismatch *)
}

(** [run ~wall_clock entry ~seed p] runs the entry once. With [~rerun]
    (default false) it runs it again and records a violation unless the
    second run has the same digest and event census. *)
val run :
  wall_clock:(unit -> float) -> ?rerun:bool -> 'p entry -> seed:int64 -> 'p -> result

(** The result envelope, [schema_version] 1. *)
val envelope : result -> Obs.Json.t

(** A report of flat rows (objects of scalars; any other row raises
    [Invalid_argument]), one line per row. Each run of consecutive rows
    with the same fields is one block under a header naming them. A row's
    ["table"] field is not a column: it titles the rows that carry it
    ([==== title ====], printed when it changes). Floats print with two
    decimals, or as [1e-07] below 0.01; [null] prints as [-]. *)
val table : Obs.Json.t list -> string
