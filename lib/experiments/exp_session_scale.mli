(** Fig. 7-style session scalability ([erpc_sim session-scale]).

    One client Rpc opens up to 20,000 sessions to one server Rpc on the
    CX4 cluster and drives a closed-loop small-RPC workload spread over
    all of them. eRPC's per-session state is constant-size (shared RQ,
    no per-connection queue pairs), so the rate should hold roughly flat
    as sessions grow — unlike RDMA's Fig. 1 cliff. *)

type result = {
  sessions : int;
  completed : int;  (** client RPCs finished in the measured window *)
  mrps : float;  (** simulated millions of requests per second *)
  lat_p50_us : float;
  lat_p99_us : float;
  events : int;  (** simulator events executed for the whole run *)
  cpu_s : float;  (** CPU seconds for the whole run ([Sys.time]) *)
}

(** Open [sessions] sessions, complete every handshake, warm up for
    1 ms of simulated time, then measure 32 B requests for [measure_ms]
    (default 2). Raises if any handshake fails. *)
val run :
  ?seed:int64 -> ?window:int -> ?measure_ms:float -> sessions:int -> unit -> result

(** The sweep used by [--sweep]: 100 to 20,000 sessions. *)
val sweep : ?seed:int64 -> ?window:int -> ?measure_ms:float -> unit -> result list
