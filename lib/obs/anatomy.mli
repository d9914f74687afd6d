(** RPC latency anatomy: decompose sampled end-to-end request latencies into
    serialize / queueing / pacing / NIC / wire / switch-queue / ring-guard /
    server / deserialize components by post-processing a trace (Table 3 of
    the paper, extended with the typed-codec stages and the intra-host
    shared-memory transport).

    Components of each breakdown sum exactly to [total_ns]: each is a
    difference of adjacent trace milestones, except the wire/switch-queue
    pair (which split each wired in-fabric interval without remainder) and
    the four codec terms (traced "codec" spans carved out of — and
    subtracted from — the enclosing client/server software interval; zero
    for untyped workloads). A direction that crossed the shared-memory
    transport instead of the wire contributes its whole transit as
    [ring_ns] with NIC/wire/switch exactly zero for that leg; mixed
    requests (one leg wired, one intra-host) decompose leg by leg. Only
    single-packet requests with single-packet responses and a complete
    milestone set are analyzed; others are skipped. *)

type breakdown = {
  host : int;  (** client host *)
  sn : int;  (** client session number *)
  req : int;  (** request number *)
  total_ns : int;
  req_ser_ns : int;  (** typed request encode on the client (0 if untyped) *)
  client_tx_ns : int;  (** remaining client software until NIC post *)
  pacing_ns : int;  (** pacing-wheel residency (0 when bypassed) *)
  nic_ns : int;  (** NIC tx/rx latency, both directions *)
  wire_ns : int;  (** predicted serialization + cable + switch latency *)
  switch_ns : int;  (** fabric queueing residual over the prediction *)
  ring_ns : int;
      (** shared-memory transit: interconnect hop + unseal/ownership
          guards + ring FIFO wait (0 for fully wired requests) *)
  req_deser_ns : int;  (** typed request decode on the server (0 if untyped) *)
  resp_ser_ns : int;  (** typed response encode on the server (0 if untyped) *)
  server_ns : int;  (** remaining server software including the handler *)
  resp_deser_ns : int;  (** typed response decode on the client (0 if untyped) *)
  client_rx_ns : int;  (** remaining client software from NIC rx to completion *)
}

val analyze : wire_ns:(int -> int) -> Trace.ev list -> breakdown list
(** [analyze ~wire_ns evs] joins packet, NIC, network, wheel, and sslot
    events into per-request breakdowns, sorted by (host, sn, req).
    [wire_ns size] must predict the pure one-direction fabric time for a
    packet of [size] bytes on an idle network (serialization + cable +
    switch forwarding latency). *)

val components : breakdown -> (string * int) list
(** Labeled components in anatomical order (excludes [total_ns]). *)

val sum_components : breakdown -> int
(** Always equals [total_ns] for breakdowns produced by {!analyze}. *)

val pp_table : Format.formatter -> breakdown list -> unit
(** Table-3-style mean breakdown with per-component shares. *)

(** {2 Tail attribution}

    "Where does the tail come from": compare the mean component breakdown
    of the body of the latency distribution against the slowest samples.
    Google's production observation (P99 requests spending >25% of their
    time in the RPC stack) is exactly this quantity; making it a standard
    per-scenario output lets every load experiment name the component that
    dominates its P99. *)

type attribution = {
  samples : int;  (** breakdowns analyzed *)
  p50_total_ns : int;  (** median end-to-end latency *)
  p99_total_ns : int;  (** P99 end-to-end latency *)
  p999_total_ns : int;  (** P99.9 end-to-end latency *)
  p50_ns : (string * int) list;
      (** mean per-component ns over the body band (samples at or below the
          median), in anatomical order *)
  p99_ns : (string * int) list;
      (** mean per-component ns over the tail band (samples at or above the
          P99 threshold) *)
  p50_dominant : string;  (** largest body-band component *)
  p99_dominant : string;  (** largest tail-band component *)
}

val attribute : breakdown list -> attribution option
(** [None] on an empty list. Band means are deterministic: totals are
    sorted, thresholds taken by rank, ties on dominance resolved in
    anatomical order. *)

val attribution_to_json : attribution -> Json.t
(** Components as [{"component":...,"p50_ns":...,"p99_ns":...,
    "p50_share":...,"p99_share":...}] rows plus the totals and dominant
    labels. *)
