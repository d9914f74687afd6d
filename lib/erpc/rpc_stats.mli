(** Per-endpoint datapath counters, shared by the {!Proto} wire-protocol
    core and the {!Rpc} dispatch layer and read live through
    {!Rpc.stats}. One record replaces the former fifteen [stat_*]
    accessors; fields keep counting monotonically for the lifetime of the
    endpoint. *)

type t = {
  mutable rx_pkts : int;  (** packets polled off the transport *)
  mutable tx_pkts : int;  (** packets posted to the transport *)
  mutable rx_corrupt : int;  (** packets dropped for checksum failure *)
  mutable retransmits : int;  (** go-back-N rollbacks performed (§5.3) *)
  mutable retx_warnings : int;
      (** times a slot's consecutive-RTO count crossed half the
          [Config.max_retransmits] budget — early warning that a peer is
          close to being declared unreachable *)
  mutable session_resets : int;
      (** sessions reset after [max_retransmits] consecutive RTOs (§4.3) *)
  mutable issued : int;  (** client RPCs enqueued *)
  mutable completed : int;  (** client RPCs completed *)
  mutable handled : int;  (** server requests handled *)
  mutable wheel_inserts : int;  (** packets paced through the Carousel wheel *)
}

val create : unit -> t
