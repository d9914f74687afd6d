(** Modeled CPU costs of eRPC's datapath, in nanoseconds.

    The simulation charges these to the owning thread's {!Sim.Cpu}
    timeline; a dispatch thread therefore saturates at the reciprocal of
    its per-RPC cost, which is what makes single-core message-rate
    experiments (Fig 4, Table 3) meaningful. Each common-case optimization
    in {!Config.opts} adds or removes specific terms, so the factor
    analysis is emergent rather than hard-coded.

    Values are calibrated (see bench/table3) so the CX4 baseline lands at
    the paper's 4.96 Mrps per thread; other clusters scale all costs by
    their [cpu_scale]. *)

type t = {
  scale : float;  (** cluster CPU-speed multiplier *)
  loop_overhead : int;  (** per event-loop activation *)
  rx_pkt : int;  (** poll + header parse + sslot bookkeeping per packet *)
  tx_data_pkt : int;  (** build + post one data packet descriptor *)
  tx_ctrl_pkt : int;  (** build + post a 16 B CR/RFR *)
  rdtsc : int;  (** one timestamp read (8 ns on the paper's hardware) *)
  timely_update : int;  (** rate computation from one RTT sample *)
  wheel_insert : int;  (** rate-limiter enqueue *)
  wheel_poll_pkt : int;  (** rate-limiter dequeue + transmit handoff *)
  dyn_alloc : int;  (** dynamic msgbuf allocation *)
  memcpy_fixed : int;
  memcpy_per_256b : int;  (** copy cost per 256 B chunk beyond the first *)
  handler_dispatch : int;  (** invoke a dispatch-mode request handler *)
  continuation : int;  (** invoke a client continuation *)
  worker_handoff : int;  (** one direction of dispatch<->worker queueing *)
  enqueue_request : int;  (** client-side request admission *)
  credit_logic : int;  (** per-packet credit/flow-control bookkeeping *)
  cc_check : int;
      (** per-packet congestion-control bookkeeping that remains even when
          the bypass optimizations hit (uncongested/bypass predicates);
          disabling CC entirely removes it — the paper's 9% total CC
          overhead (§6.2) *)
  ser_field : int;  (** compact encode, per primitive field *)
  deser_field : int;  (** compact decode, per primitive field (validation) *)
  flat_ser_field : int;  (** flat fixed-offset store, per field *)
  flat_deser_field : int;  (** flat fixed-offset load, per field *)
  shm_ring_post : int;  (** claim/publish or re-arm one shm ring slot *)
  shm_seal : int;  (** seal a shared buffer on send (content guard) *)
  shm_unseal : int;  (** unseal a shared buffer on receive *)
  shm_share_desc : int;  (** build one pointer-passing descriptor *)
  shm_ownership_check : int;
      (** receiver-side ownership-transfer validation per shared buffer *)
}

(** Apply the cluster scale to a cost. *)
val scaled : t -> int -> int

(** Cost of copying [bytes] bytes. *)
val memcpy_cost : t -> int -> int

(** Profile for a cluster: the model's per-operation costs, as calibrated
    on the CX4 cluster ([cpu_scale] 1.0), scaled by the profile's
    [cpu_scale]. *)
val for_cluster : Transport.Cluster.t -> t

(** Full scaled cost of one encode ([deser:false]) or decode
    ([deser:true]) of a message with [leaves] primitive fields and [bytes]
    total wire bytes: the backend's per-field charge plus {!memcpy_cost}. *)
val codec_cost : t -> deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> int

(** Pre-scaled shared-memory ring charges for {!Shm.create}: the
    serialize path composes the slot publish with {!memcpy_cost}; the
    share path pays flat descriptor + seal/unseal/ownership-check terms.
    The serialize-vs-share crossover payload size is emergent from these
    values (~1 KB at [cpu_scale] 1.0). *)
val shm_costs : t -> Shm.costs
