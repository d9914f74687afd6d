(** Table 5 (incast congestion control) and the §6.5 background-traffic
    experiment.

    [degree] client nodes each send one 8 MB-request flow at a single
    victim node on the CX4 cluster. Queueing builds at the victim's ToR
    downlink; per-packet RTTs measured at the clients proxy the switch
    queue length, exactly as in the paper. With congestion control off,
    each flow keeps a full credit window (32 packets) outstanding, so the
    queue sits at [degree * 32 * MTU] — the paper's no-cc RTTs. With
    Timely on, rates back off and the queue shrinks. *)

type row = {
  degree : int;
  cc : bool;
  total_gbps : float;  (** aggregate delivery rate at the victim *)
  rtt_p50_us : float;
  rtt_p99_us : float;
  switch_buffer_peak_bytes : int;
      (** deepest any switch buffer pool got, via the metrics registry *)
  retransmits : int;  (** total client retransmissions across all Rpcs *)
}

val run :
  ?seed:int64 ->
  ?trace:Obs.Trace.t ->
  ?credits:int ->
  ?warmup_ms:float ->
  ?measure_ms:float ->
  degree:int ->
  cc:bool ->
  unit ->
  row
(** [?trace] installs an event trace on the deployment's engine, capturing
    packet/sslot/CC/switch-buffer events for the whole run. *)

(** §6.5: pairs of non-victim nodes exchange latency-sensitive 64 kB RPCs
    (one outstanding) while a [degree]-way incast runs. Returns the p99
    latency (us) of the latency-sensitive RPCs. *)
type bg_result = {
  bg_degree : int;
  bg_p50_us : float;
  bg_p99_us : float;
}

val with_background : ?seed:int64 -> ?measure_ms:float -> degree:int -> unit -> bg_result
