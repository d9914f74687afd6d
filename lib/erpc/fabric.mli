(** The simulated deployment: one engine, one cluster profile, one network,
    shared eRPC configuration, plus the out-of-band session-management
    plane and failure injection.

    Experiments create a fabric, then one {!Nexus} per host and {!Rpc}s per
    thread. Killing a host silences it immediately; every other host learns
    of the failure after the management-plane detection timeout, upon which
    Rpcs fail their pending requests with {!Err.Server_failure} (paper
    Appendix B). *)

type t

val create :
  ?seed:int64 ->
  ?config:Config.t ->
  ?cost:Cost_model.t ->
  ?trace:Obs.Trace.t ->
  Transport.Cluster.t ->
  t
(** [?trace] installs an event trace on the engine before the network is
    built, so every component's instrumentation hooks are live. Without it
    the engine keeps [Obs.Trace.disabled] and hooks are branch-only. *)

val engine : t -> Sim.Engine.t

(** A fabric-wide unique session token, never reused — including across
    crash-restart cycles of a host. Stamped into every data packet so a
    receiver can reject stale traffic addressed to a recycled session
    number (real eRPC's session uniqueness token). *)
val fresh_session_token : t -> int
val cluster : t -> Transport.Cluster.t
val net : t -> Netsim.Network.t
val config : t -> Config.t
val cost : t -> Cost_model.t

(** The fabric-wide shared-memory segment directory (one per deployment;
    endpoints register their rings when the cluster co-locates hosts).
    Its liveness gate tracks {!host_dead}, so ring deliveries into a
    crashed process vanish like network deliveries. *)
val shm_hub : t -> Shm.hub

(** [colocated t a b]: hosts [a] and [b] are processes on the same
    physical machine (see {!Transport.Cluster.colocate}); reflexive. *)
val colocated : t -> int -> int -> bool

(** {2 Session-management plane} *)

val register_sm : t -> host:int -> rpc_id:int -> (Sm.msg -> unit) -> unit

(** Deliver an SM message after the configured SM latency. Messages to dead
    hosts vanish. *)
val send_sm : t -> dst_host:int -> dst_rpc:int -> Sm.msg -> unit

(** {2 Failure injection} *)

(** [on_host_failure t f] registers [f], called with the failed host id
    once the failure is detected (after [sm_failure_timeout_ns]). *)
val on_host_failure : t -> (int -> unit) -> unit

(** [on_host_killed t f] registers [f], called synchronously when a host is
    killed — used by the victim itself to stop executing. *)
val on_host_killed : t -> (int -> unit) -> unit

(** [on_host_restart t f] registers [f], called when a crashed host comes
    back up (see {!crash_host}). *)
val on_host_restart : t -> (int -> unit) -> unit

val kill_host : t -> int -> unit

(** [crash_host t host ~down_ns] is crash-with-restart: the host is silenced
    like {!kill_host}, then comes back after [down_ns] having lost all
    session state. Failure detection fires only if the host is still down
    when [sm_failure_timeout_ns] expires, so a fast restart is invisible to
    the management plane and peers must recover via bounded retransmission
    ({!Err.Peer_unreachable}). No-op if the host is already dead. *)
val crash_host : t -> int -> down_ns:int -> unit

val host_dead : t -> int -> bool
