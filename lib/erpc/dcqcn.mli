(** DCQCN: ECN-based rate control (Zhu et al., SIGCOMM '15).

    The paper could not evaluate DCQCN because none of its clusters
    performed ECN marking (§5.2.1) — eRPC only "includes the hooks" for
    it. Our simulated switches do mark ECN, so this reproduction also
    provides the DCQCN reaction-point algorithm and the Timely-vs-DCQCN
    comparison the paper leaves open.

    Reaction-point state machine (per session, at the client):
    - on a congestion notification (an ECN-echoed packet, rate-limited to
      one cut per [cnp_interval]): target <- current,
      current <- current * (1 - alpha/2), alpha <- (1-g) alpha + g;
    - alpha decays by (1-g) every [alpha_timer] without notifications;
    - rate recovery every [increase_timer]: [fast_recovery] rounds of
      current <- (target+current)/2, then additive target += rai. *)

type t

val create : Config.cc -> link_gbps:float -> t

val rate_bps : t -> float
val uncongested : t -> bool

(** Process one acknowledgement-carrying packet at time [now_ns];
    [marked] is true when the packet (or the data packet it acknowledges)
    carried an ECN mark. *)
val on_ack : t -> marked:bool -> now_ns:Sim.Time.t -> unit

val pacing_delay_ns : t -> bytes:int -> int

(** Rate cuts performed (for tests/stats). *)
val cuts : t -> int
