(** DCQCN: ECN-based rate control (Zhu et al., SIGCOMM '15).

    The paper could not evaluate DCQCN because none of its clusters
    performed ECN marking (§5.2.1) — eRPC only "includes the hooks" for
    it. Our simulated switches do mark ECN, so this reproduction also
    provides the DCQCN reaction-point algorithm and the Timely-vs-DCQCN
    comparison the paper leaves open.

    Reaction-point state machine (per session, at the client):
    - on a congestion notification (an ECN-echoed packet, rate-limited to
      one cut per 50 µs): target <- current,
      current <- current * (1 - alpha/2), alpha <- (1-g) alpha + g;
    - alpha decays by (1-g) every 55 µs without notifications;
    - rate recovery every 55 µs: 5 fast-recovery rounds of
      current <- (target+current)/2, then additive target += rai.

    The fixed parameters (g = 1/16, rai = 100 Mbps and the periods above)
    are constants of the implementation, each naming its source. *)

type t

val create : link_gbps:float -> t

val rate_bps : t -> float
val uncongested : t -> bool

(** Process one acknowledgement-carrying packet at time [now_ns];
    [marked] is true when the packet (or the data packet it acknowledges)
    carried an ECN mark. *)
val on_ack : t -> marked:bool -> now_ns:Sim.Time.t -> unit

val pacing_delay_ns : t -> bytes:int -> int

(** Rate cuts performed (for tests/stats). *)
val cuts : t -> int
