(* CPU cost to post a work request and ring the doorbell. *)
let post_ns = 75

(* CPU cost to poll the completion. *)
let poll_ns = 40

(* The remote NIC's processing of an inbound READ, and of inbound WRITE
   data. *)
let remote_read_ns = 150
let remote_write_ns = 60

let nic_config (cluster : Transport.Cluster.t) =
  let nic = cluster.nic_config in
  {
    nic with
    Nic.tx_latency_ns = nic.tx_latency_ns - cluster.rdma_delta_ns;
    (* The RDMA hardware path sees the mean of the UD path's RX jitter. *)
    rx_latency_ns = nic.rx_latency_ns + (nic.rx_jitter_ns / 2) - cluster.rdma_delta_ns;
    rx_jitter_ns = 0;
  }

type Netsim.Packet.body +=
  | Read_req of { op : int; src : int; len : int }
  | Read_data of { op : int; last : bool }
  | Write_data of { op : int; src : int; last : bool }
  | Write_ack of { op : int }

type endpoint = {
  engine : Sim.Engine.t;
  net : Netsim.Network.t;
  host : int;
  mtu : int;
  nic_tx_ns : int;
  nic_rx_ns : int;
  completions : (int, unit -> unit) Hashtbl.t;
  mutable next_op : int;
}

let send ep ~dst ~bytes ~flow body =
  let pkt =
    Netsim.Packet.make ~src:ep.host ~dst ~size_bytes:(bytes + Transport.Cluster.wire_overhead)
      ~flow_hash:flow body
  in
  Netsim.Network.send ep.net pkt

(* Stream [len] bytes of payload as MTU chunks; the host's TX port
   serializes them at line rate. [mk] builds the body for each chunk. *)
let stream ep ~dst ~len ~flow mk =
  let n_pkts = max 1 ((len + ep.mtu - 1) / ep.mtu) in
  for i = 0 to n_pkts - 1 do
    let chunk = min ep.mtu (len - (i * ep.mtu)) in
    let chunk = max chunk 0 in
    send ep ~dst ~bytes:chunk ~flow (mk ~last:(i = n_pkts - 1))
  done

let handle_rx ep pkt =
  let open Netsim.Packet in
  let flow = pkt.flow_hash in
  match pkt.body with
  | Read_req { op; src; len } ->
      (* Remote NIC serves the read without CPU involvement. *)
      Sim.Engine.schedule_after ep.engine
        (ep.nic_rx_ns + remote_read_ns + ep.nic_tx_ns)
        (fun () -> stream ep ~dst:src ~len ~flow (fun ~last -> Read_data { op; last }))
  | Read_data { op; last } ->
      if last then
        Sim.Engine.schedule_after ep.engine (ep.nic_rx_ns + poll_ns) (fun () ->
            match Hashtbl.find_opt ep.completions op with
            | Some k ->
                Hashtbl.remove ep.completions op;
                k ()
            | None -> ())
  | Write_data { op; src; last } ->
      if last then
        Sim.Engine.schedule_after ep.engine
          (ep.nic_rx_ns + remote_write_ns + ep.nic_tx_ns)
          (fun () -> send ep ~dst:src ~bytes:0 ~flow (Write_ack { op }))
  | Write_ack { op } ->
      Sim.Engine.schedule_after ep.engine (ep.nic_rx_ns + poll_ns) (fun () ->
          match Hashtbl.find_opt ep.completions op with
          | Some k ->
              Hashtbl.remove ep.completions op;
              k ()
          | None -> ())
  | _ -> ()

let create engine net ~host (cluster : Transport.Cluster.t) =
  let nic = nic_config cluster in
  let ep =
    {
      engine;
      net;
      host;
      mtu = cluster.mtu;
      nic_tx_ns = nic.tx_latency_ns;
      nic_rx_ns = nic.rx_latency_ns;
      completions = Hashtbl.create 64;
      next_op = 0;
    }
  in
  (* RX is the end of a packet's life; freeing it returns its handle. *)
  Netsim.Network.attach net ~host ~rx:(fun pkt ->
      handle_rx ep pkt;
      Netsim.Packet.free pkt);
  ep

let flow_of ep dst = (ep.host * 65_537) + dst

let post_read ep ~dst ~len ~completion =
  let op = ep.next_op in
  ep.next_op <- op + 1;
  Hashtbl.replace ep.completions op completion;
  Sim.Engine.schedule_after ep.engine (post_ns + ep.nic_tx_ns) (fun () ->
      send ep ~dst ~bytes:16 ~flow:(flow_of ep dst) (Read_req { op; src = ep.host; len }))

let post_write ep ~dst ~len ~completion =
  let op = ep.next_op in
  ep.next_op <- op + 1;
  Hashtbl.replace ep.completions op completion;
  Sim.Engine.schedule_after ep.engine (post_ns + ep.nic_tx_ns) (fun () ->
      stream ep ~dst ~len ~flow:(flow_of ep dst) (fun ~last ->
          Write_data { op; src = ep.host; last }))
