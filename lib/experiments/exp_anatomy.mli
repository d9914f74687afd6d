(** RPC latency anatomy on a quiet network (Table 3's latency breakdown),
    and the serialize-vs-share sweep over the same probe
    ([erpc_sim shm-bench]).

    Two hosts, one echo RPC outstanding at a time: every sampled latency
    decomposes into client/NIC/wire/switch/server components against an
    idle fabric, so the wire component matches the cost-model prediction
    exactly and the switch-queue residual is zero. Every probe checks
    itself: its trace ring dropped nothing, and when the two hosts are
    co-located every RPC has NIC, wire and switch time exactly zero and
    its transit in the ring. *)

type result = {
  breakdowns : Obs.Anatomy.breakdown list;
  trace : Obs.Trace.t;
      (** the event trace, exportable to Chrome JSON: the caller's, or a
          private one sized for [samples]; if it dropped records
          ({!Obs.Trace.dropped}), [breakdowns] miss the earliest RPCs *)
  predicted_wire_ns : int -> int;
      (** one-direction fabric time for a packet of the given wire size *)
  violations : string list;  (** the probe's check; empty on a clean run *)
}

(** [predictor cluster] is the pure one-direction fabric-time model for a
    single-switch cluster: serialization at the link rate on both the host
    uplink and the switch downlink, two cable hops, and the switch's
    cut-through forwarding latency. *)
val predictor : Transport.Cluster.t -> int -> int

(** Two CX5 hosts exchange [samples] (default 32) echoes of [req_size]
    (default 32) bytes. When [typed] (default false), the echo carries a
    fixed-width typed schema through {!Erpc.Typed} under [backend], so the
    breakdowns gain nonzero serialize/deserialize components.

    [transport] selects the datapath under the same workload (the
    three-transport anatomy): [`Raw_eth] (default) is the lossy UDP NIC,
    [`Rdma_rc] the lossless RDMA RC queue pair, and [`Shm] colocates the
    two endpoints on one machine so every RPC crosses the shared-memory
    rings — the breakdowns then show NIC/wire/switch exactly zero with
    the transit in [ring_ns]. *)
val run :
  ?seed:int64 ->
  ?trace:Obs.Trace.t ->
  ?samples:int ->
  ?req_size:int ->
  ?typed:bool ->
  ?backend:Codec.backend ->
  ?transport:[ `Raw_eth | `Rdma_rc | `Shm ] ->
  unit ->
  result

(** {2 Serialize-vs-share sweep}

    Two endpoints co-located on one CX3 machine run the probe over the
    {!Shm} rings, sweeping payload size under each handoff discipline
    (Serialize / Share / Auto). The Auto cells must flip from copying to
    pointer-passing exactly at the cost model's crossover payload. *)

(** One (payload, mode) cell: its RPC count, mean latency and mean
    ring/NIC/wire/switch components, the client's shared, copied and
    guard-faulted message counts, and its trace digest
    ({!shm_row_json}). *)
type shm_row

type shm_sweep = {
  rows : shm_row list;
  crossover_payload : int;
      (** smallest payload {!Shm.prefers_share} shares under the sweep's
          cost model *)
  measured_crossover : int option;
      (** smallest swept payload whose Auto cell actually shared *)
  violations : string list;
      (** every cell's probe check (prefixed ["mode/payload: "]), its
          handoff and guard checks, and the crossover's; empty on a clean
          run *)
}

(** [shm_sweep ~seed ~samples] runs the probe for payloads of 64 B to
    4 KiB x (serialize | share | auto), [samples] echoes per cell. Each
    row carries its cell's trace digest, so a same-seed rerun
    ([erpc_sim shm-bench --rerun]) compares every cell. *)
val shm_sweep : seed:int64 -> samples:int -> shm_sweep

val shm_row_json : shm_row -> Obs.Json.t
val pp_shm_sweep : Format.formatter -> shm_sweep -> unit
