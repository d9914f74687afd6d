type topology =
  | Single_switch of { hosts : int }
  | Two_tier of {
      tors : int;
      hosts_per_tor : int;
      spines : int;
      uplinks_per_tor : int;
      uplink_gbps : float;
    }

type config = {
  topology : topology;
  link_gbps : float;
  cable_ns : int;
  switch_latency_ns : int;
  switch_buffer_bytes : int;
  lossless : bool;  (* PFC-style lossless fabric (InfiniBand) *)
}

let default_config =
  {
    topology = Single_switch { hosts = 2 };
    link_gbps = 25.0;
    cable_ns = 100;
    switch_latency_ns = 300;
    switch_buffer_bytes = 12 * 1024 * 1024;
    lossless = false;
  }

(* Every switch's dynamic-threshold alpha ({!Buffer_pool}): no profile
   differs. *)
let buffer_alpha = 8.0

type host = {
  mutable rx : Packet.t -> unit;
  tx_port : Port.t;
  tor : Switch.t;
  tor_downlink : int;  (* port index on [tor] facing this host *)
  tor_index : int;
}

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  packets : Packet.table;
  hosts : host array;
  switch_list : Switch.t list;
  rng : Sim.Rng.t;
  mutable loss_prob : float;
  mutable injected_losses : int;
  (* deterministic fault-injection state (lib/faults drives these) *)
  link_up : bool array;  (* per-host access-link state *)
  partitions : (int * int, unit) Hashtbl.t;  (* severed ToR pairs *)
  extra_delay_ns : int array;  (* per-host delivery delay spike *)
  mutable corrupt_prob : float;
  mutable dup_prob : float;
  mutable reorder_prob : float;
  mutable reorder_max_ns : int;
  mutable delivery_count : int;
  mutable armed_drops : int list;  (* absolute delivery indexes to drop *)
  mutable link_drops : int;
  mutable partition_drops : int;
  mutable targeted_drops : int;
  mutable injected_dups : int;
  mutable injected_reorders : int;
}

let tor_pair (a : int) b = if a <= b then (a, b) else (b, a)

let partitioned t src dst =
  Hashtbl.length t.partitions > 0
  && Hashtbl.mem t.partitions
       (tor_pair t.hosts.(src).tor_index t.hosts.(dst).tor_index)

(* Observe-only delivery/drop events; tid 0 of the network pid is the
   delivery track. *)
let trace_drop t pkt reason =
  let tr = Sim.Engine.trace t.engine in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"drop"
      ~pid:Obs.Trace.net_pid ~tid:0
      [ ("id", Obs.Trace.I pkt.Packet.trace_id); ("reason", Obs.Trace.S reason) ]

let trace_deliver t host_id pkt =
  let tr = Sim.Engine.trace t.engine in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"deliver"
      ~pid:Obs.Trace.net_pid ~tid:0
      [ ("id", Obs.Trace.I pkt.Packet.trace_id); ("dst", Obs.Trace.I host_id) ]

(* Final-delivery fault pipeline. Order is fixed so that a given seed and
   fault schedule always consume the RNG identically: targeted drop, link
   state, partition, Bernoulli loss, corruption, then reorder/jitter delay
   and duplication. *)
let deliver t host_id pkt =
  let h = t.hosts.(host_id) in
  t.delivery_count <- t.delivery_count + 1;
  let n = t.delivery_count in
  if List.mem n t.armed_drops then begin
    t.armed_drops <- List.filter (fun m -> m <> n) t.armed_drops;
    t.targeted_drops <- t.targeted_drops + 1;
    trace_drop t pkt "targeted";
    Packet.free pkt
  end
  else if not (t.link_up.(pkt.Packet.src) && t.link_up.(host_id)) then begin
    t.link_drops <- t.link_drops + 1;
    trace_drop t pkt "link";
    Packet.free pkt
  end
  else if partitioned t pkt.Packet.src host_id then begin
    t.partition_drops <- t.partition_drops + 1;
    trace_drop t pkt "partition";
    Packet.free pkt
  end
  else if t.loss_prob > 0. && Sim.Rng.bool_with_prob t.rng t.loss_prob then begin
    t.injected_losses <- t.injected_losses + 1;
    trace_drop t pkt "loss";
    Packet.free pkt
  end
  else begin
    if t.corrupt_prob > 0. && Sim.Rng.bool_with_prob t.rng t.corrupt_prob then
      pkt.Packet.corrupted <- true;
    let delay = ref t.extra_delay_ns.(host_id) in
    if t.reorder_prob > 0. && Sim.Rng.bool_with_prob t.rng t.reorder_prob then begin
      (* Bounded reordering: hold this packet back so later packets of the
         flow overtake it at the receiver. *)
      t.injected_reorders <- t.injected_reorders + 1;
      delay := !delay + 1 + Sim.Rng.int t.rng (Int.max 1 t.reorder_max_ns)
    end;
    (* Decide duplication before the first delivery: a direct [h.rx] may
       free (and recycle) the packet synchronously, so the duplicate's
       extra reference must be taken while ours is still live. [h.rx]
       never consumes this RNG stream, so the draw order is unchanged. *)
    let dup = t.dup_prob > 0. && Sim.Rng.bool_with_prob t.rng t.dup_prob in
    if dup then Packet.retain pkt;
    if !delay = 0 then begin
      trace_deliver t host_id pkt;
      h.rx pkt
    end
    else
      Sim.Engine.schedule_after t.engine !delay (fun () ->
          trace_deliver t host_id pkt;
          h.rx pkt);
    if dup then begin
      (* The duplicate trails the original by a hair, like a replayed
         frame arriving back-to-back; the extra reference taken above is
         released by the second RX. *)
      t.injected_dups <- t.injected_dups + 1;
      Sim.Engine.schedule_after t.engine (!delay + 50) (fun () ->
          trace_deliver t host_id pkt;
          h.rx pkt)
    end
  end

let unattached_rx _pkt = invalid_arg "Network: packet delivered to unattached host"

(* Flight time of a link that feeds a switch: the cable plus the switch's
   cut-through latency, so the arrival event is the switch traversal and
   calls {!Switch.forward} directly. *)
let feed_delay_ns cfg = cfg.cable_ns + cfg.switch_latency_ns

(* Builds one ToR with [host_ids] below it. Returns the per-host record
   list. Downlink egress ports deliver to hosts; host TX ports feed the
   ToR. *)
let build_tor t_ref engine ~packets cfg ~name ~tor_index ~host_ids switch =
  List.map
    (fun host_id ->
      let downlink =
        Port.create engine ~packets
          ~name:(Printf.sprintf "%s->h%d" name host_id)
          ~rate_gbps:cfg.link_gbps ~extra_delay_ns:cfg.cable_ns
          ~pool:(Switch.pool switch) ~lossless:cfg.lossless
          ~sink:(fun pkt -> deliver (Lazy.force t_ref) host_id pkt)
          ()
      in
      let downlink_idx = Switch.add_port switch downlink in
      Switch.set_route switch ~dst:host_id ~ports:[| downlink_idx |];
      let tx_port =
        Port.create engine ~packets
          ~name:(Printf.sprintf "h%d->%s" host_id name)
          ~rate_gbps:cfg.link_gbps ~extra_delay_ns:(feed_delay_ns cfg)
          ~sink:(fun pkt -> Switch.forward switch pkt)
          ()
      in
      (host_id, { rx = unattached_rx; tx_port; tor = switch; tor_downlink = downlink_idx; tor_index }))
    host_ids

let create engine cfg =
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let packets = Packet.create_table () in
  let rec t =
    lazy
      (let hosts, switch_list =
         match cfg.topology with
         | Single_switch { hosts = n } ->
             let sw =
               Switch.create engine ~name:"sw0" ~buffer_bytes:cfg.switch_buffer_bytes
                 ~alpha:buffer_alpha
             in
             let host_ids = List.init n Fun.id in
             let assoc = build_tor t engine ~packets cfg ~name:"sw0" ~tor_index:0 ~host_ids sw in
             let arr = Array.make n (snd (List.hd assoc)) in
             List.iter (fun (id, h) -> arr.(id) <- h) assoc;
             (arr, [ sw ])
         | Two_tier { tors; hosts_per_tor; spines; uplinks_per_tor; uplink_gbps } ->
             let n = tors * hosts_per_tor in
             let spine_switches =
               Array.init spines (fun s ->
                   Switch.create engine
                     ~name:(Printf.sprintf "spine%d" s)
                     ~buffer_bytes:cfg.switch_buffer_bytes ~alpha:buffer_alpha)
             in
             let tor_switches =
               Array.init tors (fun i ->
                   Switch.create engine
                     ~name:(Printf.sprintf "tor%d" i)
                     ~buffer_bytes:cfg.switch_buffer_bytes ~alpha:buffer_alpha)
             in
             let assoc = ref [] in
             Array.iteri
               (fun i tor ->
                 let host_ids = List.init hosts_per_tor (fun j -> (i * hosts_per_tor) + j) in
                 assoc := build_tor t engine ~packets cfg ~name:(Printf.sprintf "tor%d" i) ~tor_index:i ~host_ids tor @ !assoc;
                 (* Uplinks: [uplinks_per_tor] ports, spread round-robin
                    across spines; ECMP hashes flows over all of them. Each
                    uplink is mirrored by a spine-side downlink of the same
                    rate, so the fabric is symmetric. *)
                 let spine_downlinks = Array.map (fun _ -> ref []) spine_switches in
                 let uplink_ports =
                   Array.init uplinks_per_tor (fun u ->
                       let si = u mod spines in
                       let spine = spine_switches.(si) in
                       let p =
                         Port.create engine ~packets
                           ~name:(Printf.sprintf "tor%d-up%d" i u)
                           ~rate_gbps:uplink_gbps ~extra_delay_ns:(feed_delay_ns cfg)
                           ~pool:(Switch.pool tor) ~lossless:cfg.lossless
                           ~sink:(fun pkt -> Switch.forward spine pkt)
                           ()
                       in
                       let down =
                         Port.create engine ~packets
                           ~name:(Printf.sprintf "%s->tor%d.%d" (Switch.name spine) i u)
                           ~rate_gbps:uplink_gbps ~extra_delay_ns:(feed_delay_ns cfg)
                           ~pool:(Switch.pool spine) ~lossless:cfg.lossless
                           ~sink:(fun pkt -> Switch.forward tor pkt)
                           ()
                       in
                       spine_downlinks.(si) := Switch.add_port spine down :: !(spine_downlinks.(si));
                       Switch.add_port tor p)
                 in
                 (* Remote hosts route over the uplinks. *)
                 for dst = 0 to n - 1 do
                   if dst / hosts_per_tor <> i then
                     Switch.set_route tor ~dst ~ports:uplink_ports
                 done;
                 Array.iteri
                   (fun si spine ->
                     match !(spine_downlinks.(si)) with
                     | [] -> ()
                     | ports ->
                         let ports = Array.of_list ports in
                         List.iter
                           (fun host_id -> Switch.set_route spine ~dst:host_id ~ports)
                           (List.init hosts_per_tor (fun j -> (i * hosts_per_tor) + j)))
                   spine_switches)
               tor_switches;
             let arr = Array.make n (snd (List.hd !assoc)) in
             List.iter (fun (id, h) -> arr.(id) <- h) !assoc;
             (arr, Array.to_list tor_switches @ Array.to_list spine_switches)
       in
       {
         engine;
         cfg;
         packets;
         hosts;
         switch_list;
         rng;
         loss_prob = 0.;
         injected_losses = 0;
         link_up = Array.make (Array.length hosts) true;
         partitions = Hashtbl.create 4;
         extra_delay_ns = Array.make (Array.length hosts) 0;
         corrupt_prob = 0.;
         dup_prob = 0.;
         reorder_prob = 0.;
         reorder_max_ns = 0;
         delivery_count = 0;
         armed_drops = [];
         link_drops = 0;
         partition_drops = 0;
         targeted_drops = 0;
         injected_dups = 0;
         injected_reorders = 0;
       })
  in
  Lazy.force t

let num_hosts t = Array.length t.hosts
let config t = t.cfg
let packets t = t.packets

let attach t ~host ~rx = t.hosts.(host).rx <- rx

let send t pkt =
  if not t.link_up.(pkt.Packet.src) then begin
    t.link_drops <- t.link_drops + 1;
    trace_drop t pkt "link_tx";
    Packet.free pkt
  end
  else begin
    pkt.Packet.sent_at <- Sim.Engine.now t.engine;
    ignore (Port.send t.hosts.(pkt.Packet.src).tx_port pkt)
  end

let set_loss_prob t p = t.loss_prob <- p
let injected_losses t = t.injected_losses

(* {2 Fault injection} *)

let set_host_link t ~host up = t.link_up.(host) <- up
let host_link_up t ~host = t.link_up.(host)

let set_partition t ~tor_a ~tor_b severed =
  let key = tor_pair tor_a tor_b in
  if severed then Hashtbl.replace t.partitions key ()
  else Hashtbl.remove t.partitions key

let set_corrupt_prob t p = t.corrupt_prob <- p

let set_dup_prob t p = t.dup_prob <- p

let set_reorder t ~prob ~max_delay_ns =
  t.reorder_prob <- prob;
  t.reorder_max_ns <- max_delay_ns

let set_host_extra_delay t ~host extra_ns = t.extra_delay_ns.(host) <- extra_ns

let arm_drop_nth t n =
  if n < 1 then invalid_arg "Network.arm_drop_nth: n must be >= 1";
  t.armed_drops <- (t.delivery_count + n) :: t.armed_drops

let link_drops t = t.link_drops
let partition_drops t = t.partition_drops
let targeted_drops t = t.targeted_drops
let injected_dups t = t.injected_dups
let injected_reorders t = t.injected_reorders
let host_tor_index t ~host = t.hosts.(host).tor_index

let tor_downlink_port t ~host =
  let h = t.hosts.(host) in
  Switch.port h.tor h.tor_downlink

let fabric_drops t =
  List.fold_left (fun acc sw -> acc + Switch.dropped_packets sw) 0 t.switch_list

let same_tor t a b = t.hosts.(a).tor_index = t.hosts.(b).tor_index

let ports t =
  Array.fold_right (fun h acc -> h.tx_port :: acc) t.hosts
    (List.concat_map Switch.ports t.switch_list)

let audit t = List.concat_map Port.audit (ports t) @ List.concat_map Switch.audit t.switch_list
