(** Codec benchmark ([erpc_sim codec-bench]): backend x payload schema.
    Each row carries wall-clock encode/decode ns/op of the codec
    implementation itself, the per-message cost the simulator's
    {!Erpc.Cost_model} charges for the same operation, and the simulated
    end-to-end typed-echo rate under that backend. *)

type row = {
  backend : string;
  schema : string;
  wire_bytes : int;
  leaves : int;
  encode_ns : float;  (** wall-clock ns per encode *)
  decode_ns : float;  (** wall-clock ns per decode *)
  model_encode_ns : int;  (** modeled CPU charge per encode *)
  model_decode_ns : int;
  sim_mrps : float;  (** simulated typed-echo rate under this backend *)
}

(** Full sweep: {Compact, Flat} x {fixed24, var64} = 4 rows. [iters]
    controls the wall-clock loops (default 100k); [measure_ms] the
    simulated measurement window (default 2 ms). *)
val run :
  ?seed:int64 ->
  ?iters:int ->
  ?measure_ms:float ->
  unit ->
  row list

(** A row's simulated and modeled fields. *)
val row_json : row -> Obs.Json.t

(** A row's wall-clock fields ([encode_ns], [decode_ns]), keyed like
    {!row_json}. *)
val host_json : row -> Obs.Json.t
val pp_table : Format.formatter -> row list -> unit
