(** Cluster-scale multi-tenant open-loop traffic with tail-SLO reporting:
    the builtin {!Workload.Traffic_spec} scenarios, run by {!Kv_runner}.
    Tenant populations of open-loop sources (Poisson / bursty on-off /
    diurnal-ramp arrivals, uniform / Zipf / hot-key-shift key streams,
    mixed small-RPC + large-transfer traffic) issue operations on a fixed
    schedule regardless of completions, so overload surfaces as tail
    latency rather than reduced offered load. Each scenario reports, per
    tenant, the whole-run and steady-state tallies, phase tags before and
    after the warmup, GET and PUT percentiles apart and an availability
    timeline, and per scenario the tail attribution and the digest of its
    event trace. *)

type tenant_report = Kv_runner.tenant_report
type result = Kv_runner.result

(** [run ~seed scenario] is {!Kv_runner.run} (default seed 42). *)
val run : ?seed:int64 -> Workload.Traffic_spec.scenario -> result

(** Run a named builtin scenario (see {!Workload.Traffic_spec.builtin}).
    Raises [Invalid_argument] on an unknown name. *)
val run_named :
  ?seed:int64 -> ?scale:float -> ?horizon_ms:float -> string -> result

(** All builtin scenarios in order. [~jobs] fans the scenarios across
    that many OCaml domains; results stay in scenario order, so the
    report is identical for any [jobs]. *)
val run_all :
  ?seed:int64 -> ?scale:float -> ?horizon_ms:float -> ?jobs:int -> unit -> result list

(** [analyzed_rpcs / issued_rpcs]: the share of client RPCs the tail
    attribution covers (0 when none were issued). *)
val coverage : result -> float

val pp_result : Format.formatter -> result -> unit

(** One scenario as JSON, coverage included. *)
val result_to_json : result -> Obs.Json.t
