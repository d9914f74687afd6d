(** Congestion-control dispatch: one client-session rate controller,
    either {!Timely} (RTT-gradient, the paper's deployed choice) or
    {!Dcqcn} (ECN-based, enabled by the simulated switches' marking). *)

type t = Timely_cc of Timely.t | Dcqcn_cc of Dcqcn.t

val create : ?phase:int -> Config.cc -> link_gbps:float -> t

val rate_bps : t -> float
val uncongested : t -> bool

(** Feed one acknowledgement: the RTT sample and whether the packet (or
    the data packet it acknowledges) carried an ECN mark. *)
val on_sample : t -> rtt_ns:int -> marked:bool -> now_ns:Sim.Time.t -> unit

val pacing_delay_ns : t -> bytes:int -> int

(** True when {!on_sample} would be a no-op under the Timely-bypass
    common-case optimization (§5.2.2): an uncongested session whose signal
    shows no congestion. *)
val bypassable : t -> rtt_ns:int -> marked:bool -> bool

(** Rate updates performed (both algorithms), for stats. *)
val updates : t -> int
