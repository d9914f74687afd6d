(** Simulator-throughput bench ([erpc_sim bench-sim]).

    Measures the simulator itself rather than the simulated system: CPU
    seconds, events per wall-clock second, and minor-heap words allocated
    per event, over a set of fixed-seed workloads (incast, small-RPC
    rate, bandwidth, chaos). *)

type row = {
  workload : string;
  wall_s : float;  (** CPU seconds ([Sys.time]) for the whole run *)
  events : int;  (** simulator events executed *)
  events_per_sec : float;
  minor_words_per_event : float;
      (** minor-heap words allocated per event ([Gc.minor_words] delta) *)
  events_by_layer : (string * int) list;
      (** [events] split by simulator layer ({!Sim.Engine.census}); sums to
          [events], and a same-seed rerun must reproduce it exactly *)
  digest : string;
      (** deterministic fingerprint of the run's end state (simulated
          clock, event count, aggregate RPC stats; chaos hashes its
          trace). A same-seed rerun must reproduce it exactly — the
          [bench-sim --rerun] gate asserts this. *)
}

(** Names accepted by [run_one]'s [~workload]. *)
val workload_names : string list

(** Run one workload. *)
val run_one : workload:string -> seed:int64 -> row

(** The BENCH_*.json document for a list of rows
    (benchmark ["sim_events"]). *)
val to_json : row list -> Obs.Json.t
