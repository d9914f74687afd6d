type t = Timely_cc of Timely.t | Dcqcn_cc of Dcqcn.t

let create ?phase (cc : Config.cc) ~link_gbps =
  match cc.algo with
  | Config.Timely -> Timely_cc (Timely.create ?phase cc ~link_gbps)
  | Config.Dcqcn -> Dcqcn_cc (Dcqcn.create ~link_gbps)

let rate_bps = function
  | Timely_cc t -> Timely.rate_bps t
  | Dcqcn_cc d -> Dcqcn.rate_bps d

let uncongested = function
  | Timely_cc t -> Timely.uncongested t
  | Dcqcn_cc d -> Dcqcn.uncongested d

(* The datapath hands over the whole acknowledgement signal — RTT, ECN
   mark and timestamp — and each arm reads what it uses: Timely the RTT,
   DCQCN the mark and time. An algorithm swapped in behind this seam gets
   the full signal without touching the datapath. *)
let on_sample t ~rtt_ns ~marked ~now_ns =
  match t with
  | Timely_cc tl -> Timely.update tl ~sample_rtt_ns:rtt_ns
  | Dcqcn_cc d -> Dcqcn.on_ack d ~marked ~now_ns

let pacing_delay_ns t ~bytes =
  match t with
  | Timely_cc tl -> Timely.pacing_delay_ns tl ~bytes
  | Dcqcn_cc d -> Dcqcn.pacing_delay_ns d ~bytes

let bypassable t ~(rtt_ns : int) ~marked =
  match t with
  | Timely_cc tl -> Timely.uncongested tl && rtt_ns < Timely.t_low_ns
  | Dcqcn_cc d -> Dcqcn.uncongested d && not marked

let updates = function
  | Timely_cc t -> Timely.updates t
  | Dcqcn_cc d -> Dcqcn.cuts d
