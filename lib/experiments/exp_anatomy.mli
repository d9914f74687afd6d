(** RPC latency anatomy on a quiet network (Table 3's latency breakdown).

    Two CX5 hosts, one 32 B echo RPC outstanding at a time: every sampled
    latency decomposes into client/NIC/wire/switch/server components
    against an idle fabric, so the wire component matches the cost-model
    prediction exactly and the switch-queue residual is zero. *)

type result = {
  breakdowns : Obs.Anatomy.breakdown list;
  trace : Obs.Trace.t;
      (** the event trace, exportable to Chrome JSON: the caller's, or a
          private one sized for [samples]; if it dropped records
          ({!Obs.Trace.dropped}), [breakdowns] miss the earliest RPCs *)
  predicted_wire_ns : int -> int;
      (** one-direction fabric time for a packet of the given wire size *)
}

(** [predictor cluster] is the pure one-direction fabric-time model for a
    single-switch cluster: serialization at the link rate on both the host
    uplink and the switch downlink, two cable hops, and the switch's
    cut-through forwarding latency. *)
val predictor : Transport.Cluster.t -> int -> int

(** When [typed] (default false), the echo carries a fixed-width typed
    schema through {!Erpc.Typed} under [backend], so the
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
