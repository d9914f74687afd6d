(** Timely: RTT-gradient congestion control (Mittal et al., SIGCOMM '15),
    as adapted by eRPC (§5.2): rate-based, per-session, entirely at the
    client.

    A session whose computed rate sits at the link's maximum is
    {e uncongested}; eRPC's common-case optimizations (Timely bypass, rate
    limiter bypass) key off this predicate.

    The fixed parameters are constants of the implementation, each
    naming its source; the rate floor is {!Config.min_rate_bps}. *)

type t

(** [phase] staggers the first rate update among sessions. *)
val create : ?phase:int -> Config.cc -> link_gbps:float -> t

(** Current sending rate in bits per second. *)
val rate_bps : t -> float

(** Rate is pinned at the link rate. *)
val uncongested : t -> bool

(** Feed one acknowledgement's RTT sample. *)
val update : t -> sample_rtt_ns:int -> unit

(** The Timely-bypass test (§5.2.2): the session is uncongested and the
    sample RTT is below 50 µs, the Timely paper's additive-increase
    threshold, so an {!update} would leave the rate at the link's
    maximum. *)
val bypassable : t -> rtt_ns:int -> bool

(** Time (ns) to serialize [bytes] at the current rate. *)
val pacing_delay_ns : t -> bytes:int -> int

(** Rate computations performed (one per [samples_per_update] samples
    fed to {!update}), for the factor-analysis accounting. *)
val updates : t -> int

(** Force the rate (tests/ablation). *)
val set_rate_bps : t -> float -> unit
