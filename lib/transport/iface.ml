(* The transport seam: everything the wire protocol is allowed to know
   about the packet I/O device underneath it. *)

module type S = sig
  type t

  val kind : t -> string
  val rq_size : t -> int
  val tx_burst : t -> at:Sim.Time.t -> Netsim.Packet.t -> unit
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

(* Both devices provide exactly [S]: checked here, at compile time. *)
module _ : S = Nic

module _ : S = struct
  type t = Shm.endpoint

  include Shm
end

type t = Wire of Nic.t | Mux of Shm.endpoint

let kind = function Wire n -> Nic.kind n | Mux m -> Shm.kind m
let rq_size = function Wire n -> Nic.rq_size n | Mux m -> Shm.rq_size m
let tx_burst t ~at pkt =
  match t with Wire n -> Nic.tx_burst n ~at pkt | Mux m -> Shm.tx_burst m ~at pkt
let tx_pending = function Wire n -> Nic.tx_pending n | Mux m -> Shm.tx_pending m
let flush_time_ns = function Wire n -> Nic.flush_time_ns n | Mux m -> Shm.flush_time_ns m

let rx_burst t ~max f =
  match t with Wire n -> Nic.rx_burst n ~max f | Mux m -> Shm.rx_burst m ~max f

let rx_ring_depth = function Wire n -> Nic.rx_ring_depth n | Mux m -> Shm.rx_ring_depth m

let set_rx_notify t f =
  match t with Wire n -> Nic.set_rx_notify n f | Mux m -> Shm.set_rx_notify m f

let replenish_rx t k = match t with Wire n -> Nic.replenish_rx n k | Mux m -> Shm.replenish_rx m k
let receive t pkt = match t with Wire n -> Nic.receive n pkt | Mux m -> Shm.receive m pkt
let reset_rx = function Wire n -> Nic.reset_rx n | Mux m -> Shm.reset_rx m
let rx_packets = function Wire n -> Nic.rx_packets n | Mux m -> Shm.rx_packets m
let tx_packets = function Wire n -> Nic.tx_packets n | Mux m -> Shm.tx_packets m
let rx_dropped = function Wire n -> Nic.rx_dropped n | Mux m -> Shm.rx_dropped m
