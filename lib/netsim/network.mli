(** Whole-network fabric: topology construction, host attachment, loss
    injection.

    Supported topologies:
    - [Single_switch]: all hosts under one ToR (CX3/CX5-style testbeds);
    - [Two_tier]: ToRs + spines with ECMP and configurable oversubscription
      (the paper's 100-node CX4 CloudLab cluster: 5 ToRs with 25 GbE
      downlinks and 100 GbE uplinks, 2:1 oversubscribed).

    Hosts are identified by dense integer ids. Each host registers an RX
    callback; [send] injects a packet at the source host's NIC TX port.
    Bernoulli packet loss (for Table 4) is applied at final delivery. *)

type topology =
  | Single_switch of { hosts : int }
  | Two_tier of {
      tors : int;
      hosts_per_tor : int;
      spines : int;
      uplinks_per_tor : int;
      uplink_gbps : float;
    }

type config = {
  topology : topology;
  link_gbps : float;  (** host-to-ToR link rate *)
  cable_ns : int;  (** per-hop propagation delay *)
  switch_latency_ns : int;
      (** cut-through port-to-port latency, added to the flight time of
          every link that feeds a switch *)
  switch_buffer_bytes : int;
  buffer_alpha : float;  (** dynamic-threshold alpha *)
  lossless : bool;
      (** PFC-style lossless fabric: congested switch ports pause (modeled
          as forced buffer admission) instead of dropping — the InfiniBand
          CX3 cluster *)
}

val default_config : config

type t

val create : Sim.Engine.t -> config -> t

val num_hosts : t -> int
val config : t -> config

(** The handle table every queue and event of this network, and of the
    NICs and shared-memory rings attached to it, addresses packets by. *)
val packets : t -> Packet.table

(** [attach t ~host ~rx] registers the receive callback for [host].
    Packets surviving loss injection are delivered to [rx], which owns
    its reference and drops it with {!Packet.free}: until then the packet
    holds its handle in {!packets}. *)
val attach : t -> host:int -> rx:(Packet.t -> unit) -> unit

(** Inject a packet at [pkt.src]'s NIC TX port. *)
val send : t -> Packet.t -> unit

(** Delivery-time Bernoulli loss probability (default 0). *)
val set_loss_prob : t -> float -> unit

val injected_losses : t -> int

(** {2 Deterministic fault injection}

    These hooks are driven by the [faults] library's schedule compiler.
    All randomized faults (loss, corruption, duplication, reordering) draw
    from the network's seeded RNG stream in a fixed order, so a given
    engine seed and fault schedule always produce the same packet-level
    outcome. *)

(** Take a host's access link down ([false]) or back up ([true]). While
    down, packets from and to the host are dropped at the fault layer. *)
val set_host_link : t -> host:int -> bool -> unit

val host_link_up : t -> host:int -> bool

(** Sever (or heal) connectivity between two ToRs: packets whose endpoints
    sit under the severed pair are dropped. A ToR partitioned from itself
    ([tor_a = tor_b]) isolates intra-rack traffic too. *)
val set_partition : t -> tor_a:int -> tor_b:int -> bool -> unit

(** Per-delivery corruption probability. A corrupted packet gets
    {!Packet.t.corrupted} set and is still delivered — receivers must
    detect it, as a wire checksum would. No payload byte changes: the
    payload is a zero-copy slice of the sender's live msgbuf. *)
val set_corrupt_prob : t -> float -> unit

(** Per-delivery duplication probability; the duplicate arrives 50 ns after
    the original. *)
val set_dup_prob : t -> float -> unit

(** Bounded reordering: with probability [prob], delay a packet's delivery
    by 1..[max_delay_ns] ns so later packets overtake it. *)
val set_reorder : t -> prob:float -> max_delay_ns:int -> unit

(** Delay-jitter spike: add [extra_ns] to every delivery at [host]
    (0 clears). *)
val set_host_extra_delay : t -> host:int -> int -> unit

(** [arm_drop_nth t n] deterministically drops the [n]-th next final
    delivery (1-based, counted from now, across all hosts) — lets protocol
    tests target a specific packet instead of sweeping seeds. May be armed
    multiple times. *)
val arm_drop_nth : t -> int -> unit

(** Fault-layer drop/injection counters. *)

val link_drops : t -> int
val partition_drops : t -> int
val targeted_drops : t -> int
val injected_dups : t -> int
val injected_reorders : t -> int

(** The ToR index a host sits under (0 for single-switch topologies). *)
val host_tor_index : t -> host:int -> int

(** The ToR egress port facing [host] — where incast queueing happens. *)
val tor_downlink_port : t -> host:int -> Port.t

(** Total packets dropped in the fabric by buffer admission. *)
val fabric_drops : t -> int

(** True if the two hosts sit under the same ToR. *)
val same_tor : t -> int -> int -> bool

(** Every egress port: the hosts' NIC TX ports, then each switch's. *)
val ports : t -> Port.t list

(** Cross-layer conservation audit of the fabric: per port, admitted =
    departed + queued in packets and in bytes ({!Port.audit}); per switch,
    the shared pool's occupancy = the sum of its ports' queued bytes
    ({!Switch.audit}). Returns one line per violation; empty on a correct
    network, mid-run or quiescent. *)
val audit : t -> string list
