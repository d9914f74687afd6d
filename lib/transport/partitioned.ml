(* Rack-partitioned cluster fabric over Sim.Partition.

   Topology: [racks] single-ToR racks, one per logical partition. Hosts
   keep their global dense ids (rack r owns hosts r*H .. r*H+H-1). Each
   partition builds a complete per-rack Netsim network whose switch also
   carries one gateway uplink port per remote rack; routes for remote
   hosts point at the gateway. A packet crossing racks therefore pays:
   source NIC + ToR cut-through + gateway uplink serialization inside the
   source partition, the inter-rack cable as the partition hop, then ToR
   cut-through + downlink serialization + cable inside the destination
   partition. The inter-rack propagation delay is the PDES lookahead
   window — the physics that lets partitions run ahead of each other.

   What crosses the domain boundary is an immutable {!Netsim.Packet.transfer}
   snapshot; each partition rehydrates arrivals from its own packet pool
   (intrusive free-lists must stay domain-local) and hands them to its
   ToR's {!Netsim.Switch.forward}, so arrivals traverse the standard
   switch/downlink/fault pipeline of the receiving partition. *)

type t = {
  group : Netsim.Packet.transfer Sim.Partition.t;
  nets : Netsim.Network.t array;
  pools : Netsim.Packet.pool array;
  racks : int;
  hosts_per_rack : int;
  inter_rack_ns : int;
}

let default_uplink_gbps = 100.0

let create ?seed ?(config = Netsim.Network.default_config)
    ?(uplink_gbps = default_uplink_gbps) ?(inter_rack_ns = 500) ?trace_capacity
    ~racks ~hosts_per_rack () =
  if racks < 1 || hosts_per_rack < 1 then
    invalid_arg "Partitioned.create: need at least one rack and host";
  if inter_rack_ns < 1 then
    invalid_arg "Partitioned.create: inter_rack_ns must be >= 1 (lookahead)";
  let n = racks * hosts_per_rack in
  let group = Sim.Partition.create ?seed ~parts:racks () in
  (* Trace shards must exist before any component caches them (ports cache
     the engine trace at creation). *)
  (match trace_capacity with
  | Some capacity ->
      for p = 0 to racks - 1 do
        Sim.Engine.set_trace
          (Sim.Partition.engine group p)
          (Obs.Trace.create ~capacity ())
      done
  | None -> ());
  for p = 0 to racks - 1 do
    for q = 0 to racks - 1 do
      if p <> q then
        Sim.Partition.connect group ~src:p ~dst:q ~lookahead:inter_rack_ns
    done
  done;
  let nets =
    Array.init racks (fun p ->
        Netsim.Network.create
          (Sim.Partition.engine group p)
          { config with Netsim.Network.topology = Single_switch { hosts = n } })
  in
  let pools = Array.init racks (fun _ -> Netsim.Packet.create_pool ()) in
  let t = { group; nets; pools; racks; hosts_per_rack; inter_rack_ns } in
  let switch_ns = config.Netsim.Network.switch_latency_ns in
  for p = 0 to racks - 1 do
    let engine = Sim.Partition.engine group p in
    let sw =
      match Netsim.Network.switches nets.(p) with
      | [ sw ] -> sw
      | _ -> assert false
    in
    for q = 0 to racks - 1 do
      if q <> p then begin
        (* Gateway sink fires after uplink serialization; the inter-rack
           cable is modeled as the partition hop itself. Like every link
           that feeds a switch, the hop also carries the destination
           ToR's cut-through latency, so the message timestamp lies that
           far past the lookahead bound and its delivery is the switch
           traversal. *)
        let gw =
          Netsim.Port.create engine
            ~name:(Printf.sprintf "gw%d->%d" p q)
            ~rate_gbps:uplink_gbps ~extra_delay_ns:0
            ~pool:(Netsim.Switch.pool sw) ?ecn:config.Netsim.Network.ecn
            ~lossless:config.Netsim.Network.lossless
            ~sink:(fun pkt ->
              let ts = Sim.Engine.now engine + inter_rack_ns + switch_ns in
              Sim.Partition.send group ~src:p ~dst:q ~ts
                (Netsim.Packet.to_transfer pkt);
              Netsim.Packet.free pkt)
            ()
        in
        let idx = Netsim.Switch.add_port sw gw in
        for j = 0 to hosts_per_rack - 1 do
          Netsim.Switch.set_route sw
            ~dst:((q * hosts_per_rack) + j)
            ~ports:[| idx |]
        done
      end
    done;
    Sim.Partition.on_receive group p (fun ~ts:_ ~src:_ x ->
        Netsim.Switch.forward sw (Netsim.Packet.of_transfer pools.(p) x))
  done;
  t

let group t = t.group
let num_hosts t = t.racks * t.hosts_per_rack
let racks t = t.racks
let hosts_per_rack t = t.hosts_per_rack
let inter_rack_ns t = t.inter_rack_ns
let rack_of t host = host / t.hosts_per_rack
let engine t p = Sim.Partition.engine t.group p
let net t p = t.nets.(p)

let attach t ~host ~rx =
  Netsim.Network.attach t.nets.(rack_of t host) ~host ~rx

let send t pkt =
  Netsim.Network.send t.nets.(rack_of t pkt.Netsim.Packet.src) pkt

let run ?domains ~horizon t = Sim.Partition.run ?domains ~horizon t.group
let events_processed t = Sim.Partition.events_processed t.group
let part_events t p = Sim.Partition.part_events t.group p
let messages_delivered t = Sim.Partition.messages_delivered t.group
let trace t p = Sim.Engine.trace (Sim.Partition.engine t.group p)

let merged_digest t =
  Obs.Trace.merged_digest (List.init t.racks (fun p -> trace t p))
