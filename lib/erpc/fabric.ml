type t = {
  engine : Sim.Engine.t;
  cluster : Transport.Cluster.t;
  net : Netsim.Network.t;
  cfg : Config.t;
  cost : Cost_model.t;
  sm_sinks : (int * int, Sm.msg -> unit) Hashtbl.t;
  dead_hosts : (int, unit) Hashtbl.t;
  mutable failure_watchers : (int -> unit) list;
  mutable kill_watchers : (int -> unit) list;
  mutable restart_watchers : (int -> unit) list;
  mutable next_session_token : int;
  machine : int array;  (* host -> machine representative (co-location) *)
  shm_hub : Shm.hub;
}

(* The shared-memory transport lives below the eRPC packet-body type, so
   the fabric supplies the two packet accessors its ring path needs. *)
let shm_hooks =
  {
    Shm.view =
      (fun pkt ->
        match pkt.Netsim.Packet.body with
        | Wire.Pkt r ->
            Some { Shm.dst_rpc = r.dst_rpc; data = r.data; off = r.off; len = r.len }
        | _ -> None);
    set_payload =
      (fun pkt b ->
        match pkt.Netsim.Packet.body with
        | Wire.Pkt r ->
            r.data <- b;
            r.off <- 0;
            r.len <- Bytes.length b
        | _ -> ());
  }

let create ?(seed = 42L) ?config ?cost ?trace cluster =
  let engine = Sim.Engine.create ~seed () in
  (* The trace must be installed before any component is built: ports, NICs
     and Rpcs cache [Engine.trace] at creation time. *)
  (match trace with Some tr -> Sim.Engine.set_trace engine tr | None -> ());
  let net = Transport.Cluster.build engine cluster in
  let cfg = match config with Some c -> c | None -> Config.of_cluster cluster in
  let cost = match cost with Some c -> c | None -> Cost_model.for_cluster cluster in
  let t =
    {
      engine;
      cluster;
      net;
      cfg;
      cost;
      sm_sinks = Hashtbl.create 64;
      dead_hosts = Hashtbl.create 8;
      failure_watchers = [];
      kill_watchers = [];
      restart_watchers = [];
      next_session_token = 1;
      machine = Transport.Cluster.machine_of cluster;
      shm_hub = Shm.create_hub ~hooks:shm_hooks ~packets:(Netsim.Network.packets net) ();
    }
  in
  (* Ring deliveries into a dead host vanish, mirroring the network's
     dead-host gating in {!Nexus}. *)
  Shm.set_alive t.shm_hub (fun host -> not (Hashtbl.mem t.dead_hosts host));
  t

(* Session tokens are unique fabric-wide and never reused, even across
   crash-restart cycles of a host (real eRPC's uniqueness token). A
   restarted Rpc reuses session *numbers* from zero; the token is what
   lets the data plane tell a new session apart from a stale peer still
   addressing the old one. *)
let fresh_session_token t =
  let tok = t.next_session_token in
  t.next_session_token <- tok + 1;
  tok

let engine t = t.engine
let cluster t = t.cluster
let net t = t.net
let config t = t.cfg
let cost t = t.cost
let shm_hub t = t.shm_hub
let colocated t a b = t.machine.(a) = t.machine.(b)

let register_sm t ~host ~rpc_id sink =
  if Hashtbl.mem t.sm_sinks (host, rpc_id) then
    invalid_arg (Printf.sprintf "Fabric: duplicate Rpc id %d on host %d" rpc_id host);
  Hashtbl.replace t.sm_sinks (host, rpc_id) sink

let host_dead t host = Hashtbl.mem t.dead_hosts host

let send_sm t ~dst_host ~dst_rpc msg =
  Sim.Engine.schedule_after t.engine Config.sm_latency_ns (fun () ->
      if not (host_dead t dst_host) then
        match Hashtbl.find_opt t.sm_sinks (dst_host, dst_rpc) with
        | Some sink -> sink msg
        | None -> ())

let on_host_failure t f = t.failure_watchers <- f :: t.failure_watchers
let on_host_killed t f = t.kill_watchers <- f :: t.kill_watchers
let on_host_restart t f = t.restart_watchers <- f :: t.restart_watchers

let kill_host t host =
  if not (host_dead t host) then begin
    Hashtbl.replace t.dead_hosts host ();
    List.iter (fun f -> f host) t.kill_watchers;
    Sim.Engine.schedule_after t.engine Config.sm_failure_timeout_ns (fun () ->
        List.iter (fun f -> f host) t.failure_watchers)
  end

let crash_host t host ~down_ns =
  if down_ns <= 0 then invalid_arg "Fabric.crash_host: down_ns must be positive";
  if not (host_dead t host) then begin
    Hashtbl.replace t.dead_hosts host ();
    List.iter (fun f -> f host) t.kill_watchers;
    (* Failure detection only fires if the host is still down when the
       management plane's timeout expires — a fast restart goes unnoticed by
       peers, exactly the case bounded retransmission must cover. *)
    Sim.Engine.schedule_after t.engine Config.sm_failure_timeout_ns (fun () ->
        if host_dead t host then List.iter (fun f -> f host) t.failure_watchers);
    Sim.Engine.schedule_after t.engine down_ns (fun () ->
        if host_dead t host then begin
          Hashtbl.remove t.dead_hosts host;
          List.iter (fun f -> f host) t.restart_watchers
        end)
  end
