type config = {
  post_ns : int;
  poll_ns : int;
  remote_read_ns : int;
  remote_write_ns : int;
  nic_tx_ns : int;
  nic_rx_ns : int;
  mtu : int;
  wire_overhead : int;
}

let default_config (cluster : Transport.Cluster.t) =
  {
    post_ns = 75;
    poll_ns = 40;
    remote_read_ns = 150;
    remote_write_ns = 60;
    nic_tx_ns = cluster.nic_config.tx_latency_ns - cluster.rdma_delta_ns;
    (* The RDMA hardware path sees the mean of the UD path's RX jitter. *)
    nic_rx_ns =
      cluster.nic_config.rx_latency_ns + (cluster.nic_config.rx_jitter_ns / 2)
      - cluster.rdma_delta_ns;
    mtu = cluster.mtu;
    wire_overhead = cluster.wire_overhead;
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
  cfg : config;
  completions : (int, unit -> unit) Hashtbl.t;
  mutable next_op : int;
}

let send ep ~dst ~bytes ~flow body =
  let pkt =
    Netsim.Packet.make ~src:ep.host ~dst ~size_bytes:(bytes + ep.cfg.wire_overhead)
      ~flow_hash:flow body
  in
  Netsim.Network.send ep.net pkt

(* Stream [len] bytes of payload as MTU chunks; the host's TX port
   serializes them at line rate. [mk] builds the body for each chunk. *)
let stream ep ~dst ~len ~flow mk =
  let n_pkts = max 1 ((len + ep.cfg.mtu - 1) / ep.cfg.mtu) in
  for i = 0 to n_pkts - 1 do
    let chunk = min ep.cfg.mtu (len - (i * ep.cfg.mtu)) in
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
        (ep.cfg.nic_rx_ns + ep.cfg.remote_read_ns + ep.cfg.nic_tx_ns)
        (fun () -> stream ep ~dst:src ~len ~flow (fun ~last -> Read_data { op; last }))
  | Read_data { op; last } ->
      if last then
        Sim.Engine.schedule_after ep.engine (ep.cfg.nic_rx_ns + ep.cfg.poll_ns) (fun () ->
            match Hashtbl.find_opt ep.completions op with
            | Some k ->
                Hashtbl.remove ep.completions op;
                k ()
            | None -> ())
  | Write_data { op; src; last } ->
      if last then
        Sim.Engine.schedule_after ep.engine
          (ep.cfg.nic_rx_ns + ep.cfg.remote_write_ns + ep.cfg.nic_tx_ns)
          (fun () -> send ep ~dst:src ~bytes:0 ~flow (Write_ack { op }))
  | Write_ack { op } ->
      Sim.Engine.schedule_after ep.engine (ep.cfg.nic_rx_ns + ep.cfg.poll_ns) (fun () ->
          match Hashtbl.find_opt ep.completions op with
          | Some k ->
              Hashtbl.remove ep.completions op;
              k ()
          | None -> ())
  | _ -> ()

let create engine net ~host cfg =
  let ep = { engine; net; host; cfg; completions = Hashtbl.create 64; next_op = 0 } in
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
  Sim.Engine.schedule_after ep.engine (ep.cfg.post_ns + ep.cfg.nic_tx_ns) (fun () ->
      send ep ~dst ~bytes:16 ~flow:(flow_of ep dst) (Read_req { op; src = ep.host; len }))

let post_write ep ~dst ~len ~completion =
  let op = ep.next_op in
  ep.next_op <- op + 1;
  Hashtbl.replace ep.completions op completion;
  Sim.Engine.schedule_after ep.engine (ep.cfg.post_ns + ep.cfg.nic_tx_ns) (fun () ->
      stream ep ~dst ~len ~flow:(flow_of ep dst) (fun ~last ->
          Write_data { op; src = ep.host; last }))
