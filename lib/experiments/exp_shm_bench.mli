(** Serialize-vs-share shared-memory benchmark ([erpc_sim shm-bench]).

    Two colocated endpoints exchange echo RPCs over the {!Shm} rings,
    sweeping payload size under each handoff discipline. Every cell
    checks the intra-host anatomy invariant (NIC/wire/switch components
    exactly zero, transit in the ring/guard component), and the Auto
    cells must flip from copying to pointer-passing exactly at the cost
    model's crossover payload. *)

type row = {
  payload : int;
  mode : string;  (** "serialize" | "share" | "auto" *)
  rpcs : int;  (** breakdowns analyzed (single-packet round trips) *)
  mean_ns : float;  (** mean end-to-end latency *)
  ring_ns : float;  (** mean ring/guard component *)
  nic_ns : float;
  wire_ns : float;
  switch_ns : float;
  shared_tx : int;  (** client messages handed off by pointer *)
  serialized_tx : int;  (** client messages copied into the ring *)
  guard_faults : int;
  digest : string;  (** trace digest of this cell's run *)
}

type result = {
  rows : row list;
  crossover_payload : int;
      (** smallest payload {!Shm.prefers_share} shares under the sweep's
          cost model *)
  measured_crossover : int option;
      (** smallest swept payload whose Auto cell actually shared *)
  violations : string list;  (** empty on a clean run *)
}

(** [run ()] sweeps payloads of 64 B to 4 KiB x (serialize | share | auto). Each row
    carries its cell's trace digest, so a same-seed rerun
    ([erpc_sim shm-bench --rerun]) compares every cell. *)
val run : ?seed:int64 -> ?samples:int -> unit -> result

val row_json : row -> Obs.Json.t
val pp_result : Format.formatter -> result -> unit
