(** Timely: RTT-gradient congestion control (Mittal et al., SIGCOMM '15),
    as adapted by eRPC (§5.2): rate-based, per-session, entirely at the
    client.

    A session whose computed rate sits at the link's maximum is
    {e uncongested}; eRPC's common-case optimizations (Timely bypass, rate
    limiter bypass) key off this predicate. *)

type t

(** Below this sample RTT a rate update increases additively: 50 µs, the
    Timely paper's value. The other fixed parameters are constants of the
    implementation, each naming its source; the rate floor is
    {!Config.min_rate_bps}. *)
val t_low_ns : int

(** [phase] staggers the first rate update among sessions. *)
val create : ?phase:int -> Config.cc -> link_gbps:float -> t

(** Current sending rate in bits per second. *)
val rate_bps : t -> float

(** Rate is pinned at the link rate. *)
val uncongested : t -> bool

(** Feed one acknowledgement's RTT sample. *)
val update : t -> sample_rtt_ns:int -> unit

(** Time (ns) to serialize [bytes] at the current rate. *)
val pacing_delay_ns : t -> bytes:int -> int

(** Number of [update] calls, for the factor-analysis accounting. *)
val updates : t -> int

(** Force the rate (tests/ablation). *)
val set_rate_bps : t -> float -> unit
