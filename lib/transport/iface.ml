(* The transport seam: everything the wire protocol is allowed to know
   about the packet I/O device underneath it. *)

module type S = sig
  type t

  val kind : t -> string
  val rq_size : t -> int
  val tx_burst : t -> Netsim.Packet.t -> unit
  val tx_pending : t -> int
  val flush_time_ns : t -> int
  val rx_burst : t -> max:int -> (Netsim.Packet.t -> unit) -> int
  val rx_ring_depth : t -> int
  val set_rx_notify : t -> (unit -> unit) -> unit
  val replenish_rx : t -> int -> int
  val receive : t -> Netsim.Packet.t -> unit
  val reset_rx : t -> unit
  val rx_packets : t -> int
  val tx_packets : t -> int
  val rx_dropped : t -> int
end

type t = T : (module S with type t = 'a) * 'a -> t

let kind (T ((module M), x)) = M.kind x
let rq_size (T ((module M), x)) = M.rq_size x
let tx_burst (T ((module M), x)) pkt = M.tx_burst x pkt
let tx_pending (T ((module M), x)) = M.tx_pending x
let flush_time_ns (T ((module M), x)) = M.flush_time_ns x
let rx_burst (T ((module M), x)) ~max f = M.rx_burst x ~max f
let rx_ring_depth (T ((module M), x)) = M.rx_ring_depth x
let set_rx_notify (T ((module M), x)) f = M.set_rx_notify x f
let replenish_rx (T ((module M), x)) n = M.replenish_rx x n
let receive (T ((module M), x)) pkt = M.receive x pkt
let reset_rx (T ((module M), x)) = M.reset_rx x
let rx_packets (T ((module M), x)) = M.rx_packets x
let tx_packets (T ((module M), x)) = M.tx_packets x
let rx_dropped (T ((module M), x)) = M.rx_dropped x
