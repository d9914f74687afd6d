open Session

(* The rate limiter: the Carousel wheel and the packets it paces. The
   wheel holds entry indices; entry [e] is a packet handle with the slot,
   request number and TX item (to re-stamp the RTT clock at actual TX) it
   was sent for, in parallel arrays, and free entries sit on a stack. So
   pacing a packet allocates nothing. A free entry's [pkt] is -1; its
   [slot] keeps a stale sslot until reuse, which the session table holds
   anyway. *)
type limiter = {
  wheel : Wheel.t;
  mutable slot : Session.sslot array;
  mutable req_num : int array;
  mutable item : int array;
  mutable pkt : int array;
  mutable free : int array;
  mutable n_free : int;
}

type t = {
  nexus_ : Nexus.t;
  rpc_id : int;
  host_ : int;
  engine : Sim.Engine.t;
  cfg : Config.t;
  cost : Cost_model.t;
  cpu_ : Sim.Cpu.t;
  transport_ : Transport.Iface.t;
  shm_ : Shm.endpoint option;  (* ring state when [cfg.shm_enabled] *)
  proto : Proto.t;
  bgq : (unit -> unit) Queue.t;
  mutable limiter : limiter option;
  mutable loop_scheduled : bool;
  mutable batch_ts : Sim.Time.t;
  stats_ : Rpc_stats.t;
  mutable rtt_probe : (int -> unit) option;
  packets : Netsim.Packet.table;
  (* Hot-path event handlers and the RX callback, registered once, so the
     steady-state loop schedules no closures. A deferred post carries its
     packet's handle. *)
  mutable activate_ev : Sim.Engine.handler;
  mutable wake_ev : Sim.Engine.handler;
  mutable tx_deferred_ev : Sim.Engine.handler;
  mutable rx_each : Netsim.Packet.t -> unit;
  mutable wheel_fire_fn : int -> unit;
  (* Request-handle closures shared by every dispatch-mode request. *)
  mutable h_charge : int -> unit;
  mutable h_codec_charge :
    deser:bool -> backend:Codec.backend -> leaves:int -> bytes:int -> unit;
  h_codec_mode : unit -> Codec.backend * bool;
  trace : Obs.Trace.t;
  pid : int;
  tid : int;  (* this endpoint's thread track *)
}

let id t = t.rpc_id
let host t = t.host_
let nexus t = t.nexus_
let cpu t = t.cpu_
let config t = t.cfg
let transport t = t.transport_
let shm_endpoint t = t.shm_
let stats t = t.stats_
let cc_updates t = Proto.cc_updates t.proto
let num_sessions t = Proto.n_sessions t.proto
let armed_rto_count t = Proto.armed_rto_count t.proto

(* CPU cost charging, scaled to the cluster's CPU speed. *)
let ch t ns = ignore (Sim.Cpu.charge t.cpu_ (Cost_model.scaled t.cost ns))

let dead t = Nexus.dead t.nexus_

(* {2 Typed-codec charging} *)

let codec_mode t = (t.cfg.codec_backend, t.cfg.codec_offload)

(* Charge one typed encode/decode to [cpu], priced by the endpoint's cost
   model and its offload toggle. [traced]: emit a "codec" span over the
   charged interval (dispatch timeline only — worker CPUs have no trace
   track). *)
let charge_codec_cpu t cpu ~traced ~deser ~backend ~leaves ~bytes =
  let offload = t.cfg.codec_offload in
  let cost = Cost_model.codec_cost t.cost ~deser ~backend ~offload ~leaves ~bytes in
  if traced && Obs.Trace.enabled t.trace then begin
    let ts = Int.max (Sim.Engine.now t.engine) (Sim.Cpu.next_free cpu) in
    ignore (Sim.Cpu.charge cpu cost);
    Obs.Trace.complete t.trace ~ts
      ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free cpu) ts))
      ~cat:"codec"
      ~name:(if deser then "deser" else "ser")
      ~pid:t.pid ~tid:t.tid
      [
        ("leaves", Obs.Trace.I leaves);
        ("bytes", Obs.Trace.I bytes);
        ("offload", Obs.Trace.I (if offload then 1 else 0));
      ]
  end
  else ignore (Sim.Cpu.charge cpu cost)

let charge_codec ?backend t ~deser ~leaves ~bytes =
  let backend = match backend with Some b -> b | None -> t.cfg.codec_backend in
  charge_codec_cpu t t.cpu_ ~traced:true ~deser ~backend ~leaves ~bytes

let grow_limiter lim filler =
  let n = Array.length lim.pkt in
  let m = Int.max 16 (2 * n) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  lim.slot <- extend lim.slot filler;
  lim.req_num <- extend lim.req_num 0;
  lim.item <- extend lim.item 0;
  lim.pkt <- extend lim.pkt (-1);
  lim.free <- Array.init m (fun i -> m - 1 - i);
  lim.n_free <- m - n

(* Park the packet with handle [h], sent as [slot]'s TX item [item], in a
   free limiter entry. *)
let pace lim slot ~item h =
  if lim.n_free = 0 then grow_limiter lim slot;
  lim.n_free <- lim.n_free - 1;
  let e = lim.free.(lim.n_free) in
  lim.slot.(e) <- slot;
  lim.req_num.(e) <- slot.req_num;
  lim.item.(e) <- item;
  lim.pkt.(e) <- h;
  e

let limiter t =
  match t.limiter with
  | Some lim -> lim
  | None ->
      let lim =
        {
          wheel = Wheel.create ~slot_ns:t.cfg.wheel_slot_ns ~num_slots:t.cfg.wheel_num_slots;
          slot = [||];
          req_num = [||];
          item = [||];
          pkt = [||];
          free = [||];
          n_free = 0;
        }
      in
      t.limiter <- Some lim;
      lim

(* {2 Event loop scheduling} *)

let rec schedule_activation t =
  if not t.loop_scheduled then begin
    t.loop_scheduled <- true;
    let at = Sim.Cpu.start_slice t.cpu_ in
    Sim.Engine.post t.engine at t.activate_ev 0
  end

and wake t = if not (dead t) then schedule_activation t

(* One event-loop activation: drain pending work, charging modeled CPU.
   Mirrors eRPC's run_event_loop_once: retransmissions, RX burst,
   background responses, rate-limiter wheel, TX burst. *)
and activate t =
  t.loop_scheduled <- false;
  if not (dead t) then begin
    let act_start = Sim.Engine.now t.engine in
    t.batch_ts <- act_start;
    ch t t.cost.loop_overhead;
    if t.cfg.opts.congestion_control && t.cfg.opts.batched_timestamps then
      ch t (2 * t.cost.rdtsc) (* one timestamp per RX batch, one per TX batch *);
    (* Retransmissions queued by RTO timers. *)
    Proto.drain_retx t.proto;
    (* RX burst: callback iteration straight off the ring, no list. *)
    let n_rx = Transport.Iface.rx_burst t.transport_ ~max:t.cfg.rx_batch t.rx_each in
    if n_rx > 0 then ch t (Transport.Iface.replenish_rx t.transport_ n_rx);
    (* Background-thread completions (worker handler responses, failure
       cleanup). *)
    while not (Queue.is_empty t.bgq) do
      (Queue.take t.bgq) ()
    done;
    (* Rate limiter. *)
    (match t.limiter with
    | Some lim when Wheel.pending lim.wheel > 0 ->
        ignore (Wheel.poll lim.wheel ~now:(Sim.Engine.now t.engine) t.wheel_fire_fn)
    | _ -> ());
    (* TX burst. *)
    Proto.run_tx_burst t.proto;
    (* Re-arm if work remains. *)
    if
      Transport.Iface.rx_ring_depth t.transport_ > 0
      || Proto.has_pending_tx t.proto
      || not (Queue.is_empty t.bgq)
    then schedule_activation t;
    if Obs.Trace.enabled t.trace then
      (* One span per event-loop activation, spanning the CPU time this
         activation charged to the dispatch timeline. *)
      Obs.Trace.complete t.trace ~ts:act_start
        ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free t.cpu_) act_start))
        ~cat:"rpc" ~name:"activate" ~pid:t.pid ~tid:t.tid
        [ ("rx", Obs.Trace.I n_rx) ]
  end

(* {2 Timestamps and congestion control} *)

and now_ts t =
  if not t.cfg.opts.congestion_control then t.batch_ts
  else if t.cfg.opts.batched_timestamps then t.batch_ts
  else begin
    ch t t.cost.rdtsc;
    Sim.Engine.now t.engine
  end

and cc_update t sess ~sample_rtt_ns ~marked =
  if t.cfg.opts.congestion_control then
    match sess.cc with
    | None -> ()
    | Some controller ->
        if
          t.cfg.opts.timely_bypass
          && Cc.bypassable controller ~rtt_ns:sample_rtt_ns ~marked
               ~t_low_ns:t.cfg.cc.t_low_ns
        then () (* bypass: uncongested session with no congestion signal *)
        else begin
          ch t t.cost.timely_update;
          Cc.on_sample controller ~rtt_ns:sample_rtt_ns ~marked
            ~now_ns:(Sim.Engine.now t.engine);
          if Obs.Trace.enabled t.trace then
            Obs.Trace.counter t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"cc"
              ~name:(Printf.sprintf "cc_rate_sn%d" sess.sn) ~pid:t.pid
              [ ("gbps", Obs.Trace.F (Cc.rate_bps controller /. 1e9)) ]
        end

(* Post a packet to the transport at the time the dispatch thread's charged
   work completes — the packet leaves the host when the CPU has actually
   built it. *)
and post_pkt t pkt =
  t.stats_.Rpc_stats.tx_pkts <- t.stats_.Rpc_stats.tx_pkts + 1;
  let at = Sim.Cpu.next_free t.cpu_ in
  if at <= Sim.Engine.now t.engine then Transport.Iface.tx_burst t.transport_ pkt
  else Sim.Engine.post t.engine at t.tx_deferred_ev (Netsim.Packet.intern t.packets pkt)

(* Client-side transmission honoring the Carousel rate limiter. *)
and transmit_cc t slot pkt ~wire_bytes ~tx_item ~is_retx =
  let sess = slot.session in
  if not t.cfg.opts.congestion_control then post_pkt t pkt
  else
    match sess.cc with
    | None -> post_pkt t pkt
    | Some controller ->
        ch t t.cost.cc_check;
        if t.cfg.opts.rate_limiter_bypass && Cc.uncongested controller then post_pkt t pkt
        else begin
          let now = Sim.Engine.now t.engine in
          let ts = Int.max now sess.next_tx_ts in
          sess.next_tx_ts <-
            Sim.Time.add ts (Cc.pacing_delay_ns controller ~bytes:wire_bytes);
          ch t t.cost.wheel_insert;
          t.stats_.Rpc_stats.wheel_inserts <- t.stats_.Rpc_stats.wheel_inserts + 1;
          let lim = limiter t in
          let e = pace lim slot ~item:tx_item (Netsim.Packet.intern t.packets pkt) in
          Wheel.insert lim.wheel ~now ~at:ts e;
          if Obs.Trace.enabled t.trace then
            Obs.Trace.instant t.trace ~ts:now ~cat:"wheel" ~name:"insert"
              ~pid:t.pid ~tid:t.tid
              [
                ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id);
                ("at", Obs.Trace.I ts);
                ("depth", Obs.Trace.I (Wheel.pending lim.wheel));
              ];
          (match slot.cli with
          | Some c ->
              c.wheel_refs <- c.wheel_refs + 1;
              (* A retransmitted copy is now queued: responses must be
                 dropped until the wheel holds no reference to this
                 request's msgbuf (Appendix C). *)
              if is_retx then c.retx_in_wheel <- true
          | None -> ());
          Sim.Engine.post t.engine ts t.wake_ev 0
        end

and wheel_fire t e =
  let lim = match t.limiter with Some lim -> lim | None -> assert false in
  let slot = lim.slot.(e) and req_num = lim.req_num.(e) and item = lim.item.(e) in
  let pkt = Netsim.Packet.get t.packets lim.pkt.(e) in
  lim.pkt.(e) <- -1;
  lim.free.(lim.n_free) <- e;
  lim.n_free <- lim.n_free + 1;
  ch t t.cost.wheel_poll_pkt;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"wheel"
      ~name:"fire" ~pid:t.pid ~tid:t.tid
      [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
  (* The slot's wheel occupancy drains regardless of whether the entry is
     still current; only current entries are transmitted. *)
  (match slot.cli with
  | Some c ->
      c.wheel_refs <- Int.max 0 (c.wheel_refs - 1);
      if c.wheel_refs = 0 then c.retx_in_wheel <- false
  | None -> ());
  if req_num = slot.req_num then begin
    (match slot.cli with
    | Some c ->
        (* RTT samples must measure the network, not the pacing delay the
           rate limiter itself imposed: re-stamp at actual transmission. *)
        c.tx_ts.(item mod Array.length c.tx_ts) <- Sim.Engine.now t.engine
    | None -> ());
    post_pkt t pkt
  end
  else
    (* Stale entry (its request was superseded or failed): the packet is
       never transmitted, so its only reference dies here. *)
    Netsim.Packet.free pkt

(* {2 Handler dispatch (§3.2)} *)

(* The response closures depend only on the slot, so they are built on the
   slot's first request and reused by every later one. *)
and install_handler_fns t sess slot srv =
  srv.init_resp_fn <-
    (fun size ->
      if t.cfg.opts.preallocated_responses && size <= t.cfg.mtu then begin
        let buf =
          match slot.prealloc_resp with
          | Some b -> b
          | None ->
              let b = Msgbuf.alloc ~max_size:t.cfg.mtu in
              slot.prealloc_resp <- Some b;
              b
        in
        Msgbuf.unsafe_set_size buf size;
        buf
      end
      else begin
        ch t t.cost.dyn_alloc;
        Msgbuf.alloc ~max_size:size
      end);
  srv.enqueue_fn <- (fun _h resp -> Proto.enqueue_response t.proto sess slot srv resp)

and invoke_handler t sess slot srv req_type =
  match Nexus.handler t.nexus_ req_type with
  | None -> () (* unknown request type: drop *)
  | Some (mode, handler_fn) -> (
      t.stats_.Rpc_stats.handled <- t.stats_.Rpc_stats.handled + 1;
      let req =
        match srv.req_buf with Some b -> b | None -> Msgbuf.view Bytes.empty ~off:0 ~len:0
      in
      if not (Session.handler_fns_installed srv) then install_handler_fns t sess slot srv;
      let handle =
        Req_handle.make ~req_type ~req ~charge_fn:t.h_charge ~init_resp_fn:srv.init_resp_fn
          ~enqueue_fn:srv.enqueue_fn ~codec_mode_fn:t.h_codec_mode
          ~codec_charge_fn:t.h_codec_charge
      in
      srv.handler_running <- true;
      match mode with
      | Nexus.Dispatch ->
          ch t t.cost.handler_dispatch;
          if Obs.Trace.enabled t.trace then begin
            (* Span over the CPU time the handler charges to the dispatch
               timeline, placed where that work begins. *)
            let h_start = Sim.Cpu.next_free t.cpu_ in
            handler_fn handle;
            Obs.Trace.complete t.trace ~ts:h_start
              ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free t.cpu_) h_start))
              ~cat:"rpc" ~name:"handler" ~pid:t.pid ~tid:t.tid
              [ ("type", Obs.Trace.I req_type) ]
          end
          else handler_fn handle
      | Nexus.Worker ->
          (* Hand off to a background worker thread; the response comes
             back through the background queue (§3.2). *)
          ch t (t.cost.worker_handoff / 2);
          if Obs.Trace.enabled t.trace then
            Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"rpc"
              ~name:"worker_dispatch" ~pid:t.pid ~tid:t.tid
              [ ("type", Obs.Trace.I req_type) ];
          Nexus.submit_worker t.nexus_ (fun wcpu ->
              ignore
                (Sim.Cpu.charge wcpu (Cost_model.scaled t.cost (t.cost.worker_handoff / 2)));
              handle.Req_handle.charge_fn <-
                (fun ns -> ignore (Sim.Cpu.charge wcpu (Cost_model.scaled t.cost ns)));
              handle.Req_handle.codec_charge_fn <-
                (fun ~deser ~backend ~leaves ~bytes ->
                  charge_codec_cpu t wcpu ~traced:false ~deser ~backend ~leaves ~bytes);
              handle.Req_handle.enqueue_fn <-
                (fun _h resp ->
                  let at = Sim.Cpu.next_free wcpu in
                  Sim.Engine.schedule t.engine at (fun () ->
                      if Obs.Trace.enabled t.trace then
                        Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine)
                          ~cat:"rpc" ~name:"worker_done" ~pid:t.pid ~tid:t.tid
                          [ ("type", Obs.Trace.I req_type) ];
                      Queue.add
                        (fun () ->
                          ch t (t.cost.worker_handoff / 2);
                          Proto.enqueue_response t.proto sess slot srv resp)
                        t.bgq;
                      wake t));
              handler_fn handle))

(* {2 Client API} *)

let enqueue_request t sess ~req_type ~req ~resp ~cont =
  Proto.enqueue_request t.proto sess ~req_type ~req ~resp ~cont

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
  if t.cfg.opts.congestion_control then begin
    let controller =
      Cc.create ~phase:((t.host_ * 7) + sn) t.cfg.cc
        ~link_gbps:(Fabric.cluster (Nexus.fabric t.nexus_)).link_gbps
    in
    Obs.Metrics.gauge
      (Sim.Engine.metrics t.engine)
      ~name:"cc.rate_gbps"
      ~labels:[ ("host", string_of_int t.host_); ("sn", string_of_int sn) ]
      (fun () -> Cc.rate_bps controller /. 1e9);
    Some controller
  end
  else None

let create_session t ~remote_host ~remote_rpc_id ?(on_connect = fun _ -> ()) () =
  check_session_budget t;
  let sn = Proto.fresh_sn t.proto in
  let token = Fabric.fresh_session_token (Nexus.fabric t.nexus_) in
  let sess =
    Session.create ~sn ~role:Client ~token ~remote_host ~remote_rpc_id
      ~credits:t.cfg.session_credits ~req_window:t.cfg.req_window
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
      ~credits:t.cfg.session_credits ~req_window:t.cfg.req_window
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
          ch t (Transport.Iface.flush_time_ns t.transport_)
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
  Proto.clear_on_crash t.proto;
  Queue.clear t.bgq;
  (* Paced packets die with the process; their pool takes them back. *)
  (match t.limiter with
  | Some lim ->
      Array.iter (fun h -> if h >= 0 then Netsim.Packet.free (Netsim.Packet.get t.packets h)) lim.pkt
  | None -> ());
  t.limiter <- None;
  Transport.Iface.reset_rx t.transport_

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
  (* The protocol core and this endpoint reference each other; the [env]
     closures (and the shm mux's charge hook) only run once the simulation
     does, after [self] is set. *)
  let self = ref None in
  let get () = match !self with Some t -> t | None -> assert false in
  let nic_cfg = { cluster.nic_config with multi_packet_rq = cfg.opts.multi_packet_rq } in
  let nic =
    match cfg.transport with
    | Config.Raw_eth -> Nic.create engine (Fabric.net fabric) ~host:host_ nic_cfg
    | Config.Rdma_rc ->
        (* The verbs pipeline latencies, deterministic (RX jitter at its
           mean), behind a private 450-entry connection cache. *)
        let qp = Rdma.Qp.default_config cluster in
        Nic.create ~conn_cache:(Nic.Conn_cache.create_default ()) engine (Fabric.net fabric)
          ~host:host_
          { nic_cfg with tx_latency_ns = qp.nic_tx_ns; rx_latency_ns = qp.nic_rx_ns; rx_jitter_ns = 0 }
  in
  let wire_transport = Transport.Iface.T ((module Nic), nic) in
  let shm_, transport_ =
    if not cfg.shm_enabled then (None, wire_transport)
    else begin
      let ep, tp =
        Shm.create engine ~hub:(Fabric.shm_hub fabric) ~host:host_ ~rpc_id
          ~inner:wire_transport
          ~colocated:(fun h -> Fabric.colocated fabric host_ h)
          ~charge:(fun ns -> ignore (Sim.Cpu.charge (get ()).cpu_ ns))
          ~mode:cfg.shm_mode ~slots:cfg.shm_slots ~hop_ns:cfg.shm_hop_ns
          ~costs:(Cost_model.shm_costs (Fabric.cost fabric))
          ()
      in
      (Some ep, tp)
    end
  in
  let env =
    {
      Proto.ch = (fun ns -> ch (get ()) ns);
      charge_memcpy =
        (fun len ->
          let t = get () in ignore (Sim.Cpu.charge t.cpu_ (Cost_model.memcpy_cost t.cost len)));
      now_ts = (fun () -> now_ts (get ()));
      cpu_time =
        (fun () ->
          let t = get () in
          Int.max (Sim.Engine.now t.engine) (Sim.Cpu.next_free t.cpu_));
      cc_sample = (fun sess ~sample_rtt_ns ~marked -> cc_update (get ()) sess ~sample_rtt_ns ~marked);
      transmit =
        (fun slot pkt ~wire_bytes ~tx_item ~is_retx ->
          transmit_cc (get ()) slot pkt ~wire_bytes ~tx_item ~is_retx);
      post = (fun pkt -> post_pkt (get ()) pkt);
      wake = (fun () -> wake (get ()));
      alive = (fun () -> not (dead (get ())));
      rtt_sample =
        (fun s -> match (get ()).rtt_probe with Some probe -> probe s | None -> ());
      zero_copy_dispatch =
        (fun req_type ->
          match Nexus.handler nexus_ req_type with Some (Nexus.Dispatch, _) -> true | _ -> false);
      invoke = (fun sess slot srv req_type -> invoke_handler (get ()) sess slot srv req_type);
    }
  in
  let stats_ = Rpc_stats.create () in
  let cost = Fabric.cost fabric in
  let trace = Sim.Engine.trace engine in
  let pid = Obs.Trace.host_pid host_ in
  Obs.Trace.register_process trace ~pid (Printf.sprintf "host%d" host_);
  let tid = Obs.Trace.register_track trace ~pid (Printf.sprintf "rpc%d" rpc_id) in
  let packets = Netsim.Network.packets (Fabric.net fabric) in
  let proto =
    Proto.create ~env ~engine ~host:host_ ~cfg ~cost ~transport:transport_ ~packets
      ~stats:stats_ ~tid
  in
  let t =
    {
      nexus_; rpc_id; host_; engine; cfg; cost; cpu_; transport_; shm_; proto; stats_;
      bgq = Queue.create ();
      limiter = None;
      loop_scheduled = false;
      batch_ts = Sim.Time.zero;
      rtt_probe = None;
      packets;
      activate_ev = Sim.Engine.no_handler;
      wake_ev = Sim.Engine.no_handler;
      tx_deferred_ev = Sim.Engine.no_handler;
      rx_each = (fun _ -> ());
      wheel_fire_fn = ignore;
      h_charge = (fun _ -> ());
      h_codec_charge = (fun ~deser:_ ~backend:_ ~leaves:_ ~bytes:_ -> ());
      h_codec_mode =
        (let mode = (cfg.codec_backend, cfg.codec_offload) in
         fun () -> mode);
      trace;
      pid;
      tid;
    }
  in
  self := Some t;
  t.activate_ev <- Sim.Engine.handler engine ~layer:Rpc (fun _ -> activate t);
  t.wake_ev <- Sim.Engine.handler engine ~layer:Rpc (fun _ -> wake t);
  t.tx_deferred_ev <-
    Sim.Engine.handler engine ~layer:Rpc (fun h ->
        Transport.Iface.tx_burst t.transport_ (Netsim.Packet.get t.packets h));
  t.rx_each <- (fun pkt -> Proto.rx_pkt t.proto pkt);
  t.wheel_fire_fn <- (fun entry -> wheel_fire t entry);
  t.h_charge <- (fun ns -> ch t ns);
  t.h_codec_charge <-
    (fun ~deser ~backend ~leaves ~bytes ->
      charge_codec_cpu t t.cpu_ ~traced:true ~deser ~backend ~leaves ~bytes);
  let m = Sim.Engine.metrics engine in
  let labels = [ ("host", string_of_int host_); ("rpc", string_of_int rpc_id) ] in
  Obs.Metrics.counter m ~name:"rpc.tx_pkts" ~labels (fun () -> stats_.Rpc_stats.tx_pkts);
  Obs.Metrics.counter m ~name:"rpc.rx_pkts" ~labels (fun () -> stats_.Rpc_stats.rx_pkts);
  Obs.Metrics.counter m ~name:"rpc.rx_corrupt" ~labels (fun () -> stats_.Rpc_stats.rx_corrupt);
  Obs.Metrics.counter m ~name:"rpc.retransmits" ~labels (fun () -> stats_.Rpc_stats.retransmits);
  Obs.Metrics.counter m ~name:"rpc.retx_warnings" ~labels (fun () ->
      stats_.Rpc_stats.retx_warnings);
  Obs.Metrics.counter m ~name:"rpc.session_resets" ~labels (fun () ->
      stats_.Rpc_stats.session_resets);
  Obs.Metrics.counter m ~name:"rpc.completed" ~labels (fun () -> stats_.Rpc_stats.completed);
  Obs.Metrics.counter m ~name:"rpc.handled" ~labels (fun () -> stats_.Rpc_stats.handled);
  Obs.Metrics.counter m ~name:"rpc.wheel_inserts" ~labels (fun () ->
      stats_.Rpc_stats.wheel_inserts);
  Obs.Metrics.counter m ~name:"nic.rx_pkts" ~labels (fun () -> Nic.rx_packets nic);
  Obs.Metrics.counter m ~name:"nic.tx_pkts" ~labels (fun () -> Nic.tx_packets nic);
  Obs.Metrics.counter m ~name:"nic.rx_dropped_no_desc" ~labels (fun () -> Nic.rx_dropped nic);
  Obs.Metrics.gauge m ~name:"rpc.wheel_depth" ~labels (fun () ->
      match t.limiter with Some lim -> float_of_int (Wheel.pending lim.wheel) | None -> 0.);
  Nexus.register_rx nexus_ ~rpc_id ~rx:(fun pkt -> Transport.Iface.receive t.transport_ pkt);
  Transport.Iface.set_rx_notify t.transport_ (fun () -> wake t);
  Fabric.register_sm fabric ~host:host_ ~rpc_id (fun msg ->
      if not (dead t) then handle_sm t msg);
  Fabric.on_host_failure fabric (fun failed ->
      if (not (dead t)) && failed <> host_ then handle_peer_failure t failed);
  Fabric.on_host_killed fabric (fun killed ->
      if killed = host_ then handle_local_crash t);
  t

let set_rtt_probe t probe = t.rtt_probe <- Some probe
