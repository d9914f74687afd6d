open Session

type t = {
  nexus_ : Nexus.t;
  rpc_id : int;
  host_ : int;
  engine : Sim.Engine.t;
  cfg : Config.t;
  cost : Cost_model.t;
  cpu_ : Sim.Cpu.t;
  transport_ : Transport.Iface.t;
  proto : Proto.t;
  stats_ : Rpc_stats.t;
  trace : Obs.Trace.t;
  pid : int;
  tid : int;  (* this endpoint's thread track *)
}

let nexus t = t.nexus_
let cpu t = t.cpu_
let transport t = t.transport_
let shm_endpoint t = match t.transport_ with Transport.Iface.Mux m -> Some m | Wire _ -> None
let stats t = t.stats_
let cc_updates t = Proto.cc_updates t.proto
let num_sessions t = Proto.n_sessions t.proto
let set_rtt_probe t probe = Proto.set_rtt_probe t.proto probe

(* Once nothing is in flight, every credit a client session lent out has
   come back and no slot's retransmission timer is armed. *)
let audit t =
  let v = ref [] in
  Proto.iter_sessions t.proto (fun sess ->
      let at = Printf.sprintf "host %d rpc %d session sn=%d: " t.host_ t.rpc_id sess.sn in
      if sess.role = Client && sess.credits <> sess.credit_limit then
        v := Printf.sprintf "%scredits %d <> limit %d" at sess.credits sess.credit_limit :: !v;
      Array.iter
        (function
          | Some { index; rto = Some timer; _ } when Sim.Timer.is_armed timer ->
              v := Printf.sprintf "%sslot %d: RTO armed" at index :: !v
          | _ -> ())
        sess.slots);
  List.rev !v

let dead t = Nexus.dead t.nexus_
let codec_backend t = t.cfg.codec_backend

let charge_codec ?backend t ~deser ~leaves ~bytes =
  let backend = match backend with Some b -> b | None -> t.cfg.codec_backend in
  Proto.charge_codec t.proto t.cpu_ ~deser ~backend ~leaves ~bytes

(* {2 Handler dispatch (§3.2)}

   The protocol's one upcall ({!Proto.set_invoke}): run the handler for a
   fully received request, on the dispatch thread or a worker. The handle
   names the thread, so everything the handler charges lands there. *)

let invoke_handler t slot srv req_type =
  match Nexus.handler t.nexus_ req_type with
  | None -> () (* unknown request type: drop *)
  | Some (mode, handler_fn) -> (
      t.stats_.Rpc_stats.handled <- t.stats_.Rpc_stats.handled + 1;
      let req =
        match srv.req_buf with Some b -> b | None -> Msgbuf.view Bytes.empty ~off:0 ~len:0
      in
      let h =
        { Req_handle.proto = t.proto; slot; srv; req_type; req; cpu = t.cpu_; responded = false }
      in
      srv.handler_running <- true;
      match mode with
      | Nexus.Dispatch ->
          Proto.charge t.proto t.cpu_ t.cost.handler_dispatch;
          if Obs.Trace.enabled t.trace then begin
            (* Span over the CPU time the handler charges to the dispatch
               timeline, placed where that work begins. *)
            let h_start = Sim.Cpu.next_free t.cpu_ in
            handler_fn h;
            Obs.Trace.complete t.trace ~ts:h_start
              ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free t.cpu_) h_start))
              ~cat:"rpc" ~name:"handler" ~pid:t.pid ~tid:t.tid
              [ ("type", Obs.Trace.I req_type) ]
          end
          else handler_fn h
      | Nexus.Worker ->
          (* Hand off to a background worker thread; the response comes
             back through the background queue (§3.2). *)
          Proto.charge t.proto t.cpu_ (t.cost.worker_handoff / 2);
          if Obs.Trace.enabled t.trace then
            Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"rpc"
              ~name:"worker_dispatch" ~pid:t.pid ~tid:t.tid
              [ ("type", Obs.Trace.I req_type) ];
          Nexus.submit_worker t.nexus_ (fun wcpu ->
              let h = { h with cpu = wcpu } in
              Req_handle.charge h (t.cost.worker_handoff / 2);
              handler_fn h))

(* {2 Client API} *)

let enqueue_request t sess ~req_type ~req ~resp ~cont =
  Proto.enqueue_request_hooked t.proto sess ~req_type ~req ~resp ~on_complete:ignore ~cont

let enqueue_request_hooked t sess ~req_type ~req ~resp ~on_complete ~cont =
  Proto.enqueue_request_hooked t.proto sess ~req_type ~req ~resp ~on_complete ~cont

(* {2 Sessions and session management} *)

let check_session_budget t =
  (* Credits per session must never exceed RQ descriptors (§4.3.1). *)
  let rq = Transport.Iface.rq_size t.transport_ in
  if (Proto.n_sessions t.proto + 1) * t.cfg.session_credits > rq then
    invalid_arg
      (Printf.sprintf
         "Rpc.create_session: session limit reached (%d sessions x %d credits vs RQ size %d)"
         (Proto.n_sessions t.proto + 1) t.cfg.session_credits rq)

let make_cc t ~sn =
  if t.cfg.opts.congestion_control then
    Some
      (Timely.create ~phase:((t.host_ * 7) + sn) t.cfg.cc
         ~link_gbps:(Fabric.cluster (Nexus.fabric t.nexus_)).link_gbps)
  else None

let create_session t ~remote_host ~remote_rpc_id ?(on_connect = fun _ -> ()) () =
  check_session_budget t;
  let sn = Proto.fresh_sn t.proto in
  let token = Fabric.fresh_session_token (Nexus.fabric t.nexus_) in
  let sess =
    Session.create ~sn ~role:Client ~token ~remote_host ~remote_rpc_id
      ~credits:t.cfg.session_credits
  in
  sess.cc <- make_cc t ~sn;
  sess.connect_cb <- on_connect;
  Proto.add_session t.proto sess;
  Fabric.send_sm (Nexus.fabric t.nexus_) ~dst_host:remote_host ~dst_rpc:remote_rpc_id
    (Sm.Connect_req
       {
         client_host = t.host_;
         client_rpc = t.rpc_id;
         client_sn = sn;
         token;
         credits = t.cfg.session_credits;
       });
  sess

let accept_session t ~client_host ~client_rpc ~client_sn ~token =
  let sn = Proto.fresh_sn t.proto in
  let sess =
    Session.create ~sn ~role:Server ~token ~remote_host:client_host ~remote_rpc_id:client_rpc
      ~credits:t.cfg.session_credits
  in
  sess.remote_sn <- client_sn;
  sess.state <- Connected;
  Proto.add_session t.proto sess;
  sn

let handle_sm t msg =
  match msg with
  | Sm.Connect_req { client_host; client_rpc; client_sn; token; credits = _ } ->
      let result =
        try
          Ok (check_session_budget t; accept_session t ~client_host ~client_rpc ~client_sn ~token)
        with Invalid_argument e -> Error e
      in
      Fabric.send_sm (Nexus.fabric t.nexus_) ~dst_host:client_host ~dst_rpc:client_rpc
        (Sm.Connect_resp { client_sn; result })
  | Sm.Connect_resp { client_sn; result } -> (
      match Proto.get_session t.proto client_sn with
      | None -> ()
      | Some sess -> (
          match result with
          | Ok server_sn ->
              sess.remote_sn <- server_sn;
              sess.state <- Connected;
              sess.connect_cb (Ok ());
              (* Admit requests enqueued while connecting. *)
              Proto.admit_backlog t.proto sess
          | Error e ->
              sess.state <- Error e;
              sess.connect_cb (Stdlib.Error (Err.Session_error e));
              Proto.fail_pending_requests sess (Err.Session_error e)))
  | Sm.Disconnect { server_sn; client_sn } -> (
      match Proto.get_session t.proto server_sn with
      | Some sess when sess.role = Server ->
          sess.state <- Destroyed;
          Proto.remove_session t.proto server_sn;
          Fabric.send_sm (Nexus.fabric t.nexus_) ~dst_host:sess.remote_host
            ~dst_rpc:sess.remote_rpc_id
            (Sm.Disconnect_ack { client_sn })
      | _ -> ())
  | Sm.Disconnect_ack { client_sn } -> (
      match Proto.get_session t.proto client_sn with
      | Some sess when sess.role = Client ->
          sess.state <- Destroyed;
          Proto.remove_session t.proto client_sn
      | _ -> ())

(* Node-failure handling (Appendix B): flush the TX DMA queue, then fail
   pending requests of sessions to the dead host with error codes. *)
let handle_peer_failure t failed_host =
  let touched = ref false in
  Proto.iter_sessions t.proto (fun sess ->
      if sess.remote_host = failed_host && sess.state <> Destroyed then begin
        if not !touched then begin
          touched := true;
          Proto.charge t.proto t.cpu_ (Transport.Iface.flush_time_ns t.transport_)
        end;
        sess.state <- Error "peer failed";
        if sess.role = Client then Proto.fail_pending_requests sess Err.Server_failure
      end)

(* Local crash (crash-with-restart): the process dies, losing every
   session, queue and in-flight request; continuations of lost requests are
   failed rather than leaked so callers observe each request exactly once.
   A restarted host keeps its handler registry but comes back with no
   sessions; peers recover via their own bounded-retransmission reset. *)
let handle_local_crash t =
  Proto.iter_sessions t.proto (fun sess ->
      if sess.state <> Destroyed then begin
        sess.state <- Error "local host crashed";
        if sess.role = Client then
          Proto.fail_pending_requests sess (Err.Session_error "local host crashed")
      end);
  Proto.clear_on_crash t.proto

let destroy_session t sess =
  if sess.role <> Client then invalid_arg "Rpc.destroy_session: not a client session";
  (match sess.state with
  | Destroyed -> invalid_arg "Rpc.destroy_session: already destroyed"
  | Connect_pending ->
      (* The server-side session number is unknown until the handshake
         completes: a disconnect now could not name the peer state to free. *)
      invalid_arg "Rpc.destroy_session: handshake still in flight"
  | _ -> ());
  let pending =
    Array.exists (function Some { busy = true; _ } -> true | _ -> false) sess.slots
    || not (Queue.is_empty sess.backlog)
  in
  if pending then invalid_arg "Rpc.destroy_session: session has pending requests";
  Fabric.send_sm (Nexus.fabric t.nexus_) ~dst_host:sess.remote_host
    ~dst_rpc:sess.remote_rpc_id
    (Sm.Disconnect { server_sn = sess.remote_sn; client_sn = sess.sn })

let create nexus_ ~rpc_id =
  let fabric = Nexus.fabric nexus_ in
  let engine = Fabric.engine fabric in
  let host_ = Nexus.host nexus_ in
  let cfg = Fabric.config fabric in
  let cluster = Fabric.cluster fabric in
  let cpu_ = Sim.Cpu.create engine ~name:(Printf.sprintf "h%d-rpc%d" host_ rpc_id) in
  let multi_packet_rq = cfg.opts.multi_packet_rq in
  let nic =
    match cfg.transport with
    | Config.Raw_eth ->
        Nic.create engine (Fabric.net fabric) ~host:host_ ~multi_packet_rq cluster.nic_config
    | Config.Rdma_rc ->
        (* The verbs pipeline behind a private 450-entry connection cache. *)
        Nic.create ~conn_cache:(Nic.Conn_cache.create_default ()) engine (Fabric.net fabric)
          ~host:host_ ~multi_packet_rq (Rdma.Qp.nic_config cluster)
  in
  let transport_ =
    if cluster.colocation_groups = [] then Transport.Iface.Wire nic
    else
      Transport.Iface.Mux
        (Shm.create engine ~hub:(Fabric.shm_hub fabric) ~host:host_ ~rpc_id ~inner:nic
           ~colocated:(fun h -> Fabric.colocated fabric host_ h)
           ~cpu:cpu_ ~mode:cfg.shm_mode ~slots:cfg.shm_slots ~hop_ns:cfg.shm_hop_ns
           ~costs:(Cost_model.shm_costs (Fabric.cost fabric))
           ())
  in
  let stats_ = Rpc_stats.create () in
  let cost = Fabric.cost fabric in
  let trace = Sim.Engine.trace engine in
  let pid = Obs.Trace.host_pid host_ in
  Obs.Trace.register_process trace ~pid (Printf.sprintf "host%d" host_);
  let tid = Obs.Trace.register_track trace ~pid (Printf.sprintf "rpc%d" rpc_id) in
  let proto =
    Proto.create ~engine ~host:host_ ~cfg ~mtu:cluster.mtu ~cost ~cpu:cpu_ ~transport:transport_
      ~process:(Nexus.process nexus_)
      ~packets:(Netsim.Network.packets (Fabric.net fabric))
      ~stats:stats_ ~tid
  in
  let t =
    { nexus_; rpc_id; host_; engine; cfg; cost; cpu_; transport_; proto; stats_; trace; pid; tid }
  in
  Proto.set_invoke proto (invoke_handler t);
  Nexus.register_rx nexus_ ~rpc_id transport_;
  Obs.Metrics.counter (Sim.Engine.metrics engine) ~name:"nic.rx_dropped_no_desc"
    ~labels:[ ("host", string_of_int host_); ("rpc", string_of_int rpc_id) ]
    (fun () -> Nic.rx_dropped nic);
  Fabric.register_sm fabric ~host:host_ ~rpc_id (fun msg ->
      if not (dead t) then handle_sm t msg);
  Fabric.on_host_failure fabric (fun failed ->
      if (not (dead t)) && failed <> host_ then handle_peer_failure t failed);
  Fabric.on_host_killed fabric (fun killed ->
      if killed = host_ then handle_local_crash t);
  t
