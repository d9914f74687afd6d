(** Compiles a {!Schedule} into simulator events against a deployment.

    Each schedule event is scheduled (relative to install time) to apply
    its fault and, where the fault has a duration, to revert it. Every
    application is stamped into the injector's {!Trace}, so two runs of
    the same seed can be compared byte-for-byte.

    Overlapping events on the same resource compose safely: link state is
    refcounted and probability knobs keep the strongest active interval
    until the last one expires. A reversion is stamped only when it
    changes the state in force: [restore link], [heal partition] and
    [... off] once nothing of that kind holds, or the weaker value now in
    force (e.g. [reorder p=0.155 max_delay=2092]) when a stronger
    interval ends inside a weaker one.

    A corruption fault raises the network's corruption probability
    ({!Netsim.Network.set_corrupt_prob}): chosen packets are flagged
    corrupted, which receivers' wire-checksum verification rejects. *)

type t

val create : ?trace:Trace.t -> Erpc.Fabric.t -> t

(** Schedule every event of the fault schedule, relative to now. *)
val install : t -> Schedule.t -> unit


