(* The client-driven wire protocol (paper §4) and the dispatch thread's
   datapath: request slots, session credits, go-back-N retransmission,
   CR/RFR control packets and at-most-once delivery, plus what they need
   at every packet — the dispatch CPU timeline, timestamp batching,
   congestion control, the Carousel rate limiter and the event loop.
   Devices are reached through [Transport.Iface]; the one call back into
   {!Rpc} is [invoke], which runs a request handler. *)

(* Keyed by request type and probed per request: with the identity hash a
   lookup calls neither [caml_hash] nor [compare_val]. *)
module Int_tbl = Hashtbl.Make (struct
  include Int

  let hash x = x land max_int
end)

(* Written by {!Nexus}, shared by every Proto of the host. *)
type process = { mutable dead : bool; dispatch_types : unit Int_tbl.t }

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

open Session

type t = {
  engine : Sim.Engine.t;
  host : int;
  cfg : Config.t;
  cost : Cost_model.t;
  cpu : Sim.Cpu.t;  (* the dispatch thread *)
  transport : Transport.Iface.t;
  process : process;
  stats : Rpc_stats.t;
  packets : Netsim.Packet.table;
  pool : Wire.pool;  (* free-list of recycled TX packet records *)
  mutable sessions : session option array;
  mutable n_sessions : int;
  mutable sn_hint : int;
      (* every index < sn_hint is occupied, so [fresh_sn] scans from here;
         keeps opening N sessions O(N) instead of O(N^2) *)
  txq : sslot Queue.t;
  retxq : sslot Queue.t;
  bgq : (unit -> unit) Queue.t;  (* worker completions *)
  mutable limiter : limiter option;
  mutable batch_ts : Sim.Time.t;
  mutable loop_scheduled : bool;
  mutable rtt_probe : (int -> unit) option;
  mutable invoke : sslot -> server_info -> int -> unit;  (* the upcall, set once by {!Rpc} *)
  (* Hot-path event handlers and the RX callback, registered once, so the
     steady-state loop schedules no closures. *)
  mutable activate_ev : Sim.Engine.handler;
  mutable wake_ev : Sim.Engine.handler;
  mutable rx_each : Netsim.Packet.t -> unit;
  mutable wheel_fire_fn : int -> unit;
  trace : Obs.Trace.t;
  pid : int;
  tid : int;  (* the owning endpoint's thread track *)
}

(* {2 Trace hooks (observe-only; call sites guard on [Obs.Trace.enabled])} *)

let pkt_kind_code = function
  | Pkthdr.Req -> Obs.Anatomy.kind_req
  | Pkthdr.Resp -> Obs.Anatomy.kind_resp
  | Pkthdr.Cr -> Obs.Anatomy.kind_cr
  | Pkthdr.Rfr -> Obs.Anatomy.kind_rfr

(* Stamp an outgoing packet with a trace id and emit its description once;
   NIC, port and delivery events reference only the id. [ssn] is the
   sender's local session number, [hdr.dest_session] the receiver's. *)
let tag_pkt t ~ssn pkt =
  match pkt.Netsim.Packet.body with
  | Wire.Pkt { hdr; _ } ->
      let id = Obs.Trace.fresh_id t.trace in
      pkt.Netsim.Packet.trace_id <- id;
      Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"pkt"
        ~name:"info" ~pid:t.pid ~tid:t.tid
        [
          ("id", Obs.Trace.I id);
          ("kind", Obs.Trace.I (pkt_kind_code hdr.Pkthdr.pkt_type));
          ("num", Obs.Trace.I hdr.Pkthdr.pkt_num);
          ("req", Obs.Trace.I hdr.Pkthdr.req_num);
          ("src", Obs.Trace.I t.host);
          ("dst", Obs.Trace.I pkt.Netsim.Packet.dst);
          ("ssn", Obs.Trace.I ssn);
          ("dsn", Obs.Trace.I hdr.Pkthdr.dest_session);
          ("size", Obs.Trace.I pkt.Netsim.Packet.size_bytes);
        ]
  | _ -> ()

let trace_sslot ?ts t ~name ~sn ~req extra =
  let ts = match ts with Some ts -> ts | None -> Sim.Engine.now t.engine in
  Obs.Trace.instant t.trace ~ts ~cat:"sslot" ~name ~pid:t.pid ~tid:t.tid
    (("sn", Obs.Trace.I sn) :: ("req", Obs.Trace.I req) :: extra)

let disarm_rto slot =
  match slot.rto with Some timer -> Sim.Timer.disarm timer | None -> ()

(* Fail every in-flight and backlogged request of [sess] with [err]:
   timers are disarmed, rate-limiter references dropped, msgbufs returned
   to the application, and the session's credits restored to their limit
   (the session is unusable afterward, so its accounting must balance). *)
let fail_pending_requests sess err =
  Array.iter
    (fun s ->
      match s with
      | Some ({ busy = true; args = Some args; _ } as slot) when sess.role = Client ->
          disarm_rto slot;
          (match slot.cli with
          | Some c ->
              c.wheel_refs <- 0;
              c.retx_in_wheel <- false;
              c.consec_retx <- 0
          | None -> ());
          slot.busy <- false;
          slot.args <- None;
          Msgbuf.return_to_app args.req;
          Msgbuf.return_to_app args.resp;
          args.cont (Stdlib.Error err)
      | _ -> ())
    sess.slots;
  Queue.iter
    (fun args ->
      Msgbuf.return_to_app args.req;
      Msgbuf.return_to_app args.resp;
      args.cont (Stdlib.Error err))
    sess.backlog;
  Queue.clear sess.backlog;
  Queue.iter (fun waiter -> waiter.in_credit_waitq <- false) sess.credit_waiters;
  Queue.clear sess.credit_waiters;
  sess.credits <- sess.credit_limit

(* Session reset (§4.3): entered after [max_retransmits] consecutive RTOs
   without progress. In-flight slots complete with [Err.Peer_unreachable],
   RTO timers are disarmed and msgbufs reclaimed; the session cannot be
   used again. *)
let reset_session t sess =
  t.stats.Rpc_stats.session_resets <- t.stats.Rpc_stats.session_resets + 1;
  if Obs.Trace.enabled t.trace then
    trace_sslot t ~name:"session_reset" ~sn:sess.sn ~req:(-1) [];
  sess.state <- Error "peer unreachable";
  fail_pending_requests sess Err.Peer_unreachable

(* {2 The dispatch thread}

   CPU cost charging, scaled to the cluster's CPU speed. [charge] books on
   any thread (a worker's, for its handlers); [ch] on the dispatch
   thread. *)

let charge t cpu ns = ignore (Sim.Cpu.charge cpu (Cost_model.scaled t.cost ns))
let ch t ns = charge t t.cpu ns
let charge_memcpy t len = ignore (Sim.Cpu.charge t.cpu (Cost_model.memcpy_cost t.cost len))

let schedule_activation t =
  if not t.loop_scheduled then begin
    t.loop_scheduled <- true;
    let at = Sim.Cpu.start_slice t.cpu in
    Sim.Engine.post t.engine at t.activate_ev 0
  end

let wake t = if not t.process.dead then schedule_activation t

(* {2 Timestamps and congestion control} *)

let now_ts t =
  if not t.cfg.opts.congestion_control then t.batch_ts
  else if t.cfg.opts.batched_timestamps then t.batch_ts
  else begin
    ch t t.cost.rdtsc;
    Sim.Engine.now t.engine
  end

let cc_update t sess ~sample_rtt_ns =
  if t.cfg.opts.congestion_control then
    match sess.cc with
    | None -> ()
    | Some timely ->
        if t.cfg.opts.timely_bypass && Timely.bypassable timely ~rtt_ns:sample_rtt_ns then ()
        else begin
          ch t t.cost.timely_update;
          Timely.update timely ~sample_rtt_ns;
          if Obs.Trace.enabled t.trace then
            Obs.Trace.counter t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"cc"
              ~name:(Printf.sprintf "cc_rate_sn%d" sess.sn) ~pid:t.pid
              [ ("gbps", Obs.Trace.F (Timely.rate_bps timely /. 1e9)) ]
        end

(* {2 Transmission and the Carousel rate limiter} *)

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
          wheel = Wheel.create ~slot_ns:Config.wheel_slot_ns ~num_slots:Config.wheel_num_slots;
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

(* Post a packet to the transport as of the time the dispatch thread's
   charged work completes — the packet leaves the host when the CPU has
   actually built it. *)
let post_pkt t pkt =
  t.stats.Rpc_stats.tx_pkts <- t.stats.Rpc_stats.tx_pkts + 1;
  Transport.Iface.tx_burst t.transport ~at:(Sim.Cpu.next_free t.cpu) pkt

(* Client-side transmission honoring the Carousel rate limiter. *)
let transmit_cc t slot pkt ~wire_bytes ~tx_item ~is_retx =
  let sess = slot.session in
  if not t.cfg.opts.congestion_control then post_pkt t pkt
  else
    match sess.cc with
    | None -> post_pkt t pkt
    | Some timely ->
        ch t t.cost.cc_check;
        if t.cfg.opts.rate_limiter_bypass && Timely.uncongested timely then post_pkt t pkt
        else begin
          let now = Sim.Engine.now t.engine in
          let ts = Int.max now sess.next_tx_ts in
          sess.next_tx_ts <-
            Sim.Time.add ts (Timely.pacing_delay_ns timely ~bytes:wire_bytes);
          ch t t.cost.wheel_insert;
          t.stats.Rpc_stats.wheel_inserts <- t.stats.Rpc_stats.wheel_inserts + 1;
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

let wheel_fire t e =
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

(* {2 Client TX path} *)

let rec push_txq t slot =
  if not slot.in_txq then begin
    slot.in_txq <- true;
    Queue.add slot t.txq
  end

and client_next_item_ready (cli : client_info) =
  let k = cli.num_tx in
  if k < cli.n_req_pkts then true
  else
    cli.n_resp_pkts > 0
    && k < cli.n_req_pkts + cli.n_resp_pkts - 1
    && cli.num_rx >= cli.n_req_pkts

and service_slot_tx t slot budget =
  let sess = slot.session in
  (* A match, not [sess.state = Connected]: [conn_state] carries a string,
     so [=] would be a polymorphic compare per serviced slot. *)
  match (sess.state, slot.args, slot.cli) with
  | Connected, Some args, Some cli when slot.busy ->
      let continue = ref true in
      while !continue && !budget > 0 && sess.credits > 0 && client_next_item_ready cli do
        send_tx_item t slot args cli;
        decr budget
      done;
      if client_next_item_ready cli then
        if sess.credits = 0 then begin
          (* Blocked on credits: park until a CR/response returns one,
             so other slots of the session are not starved. *)
          if not slot.in_credit_waitq then begin
            slot.in_credit_waitq <- true;
            Queue.add slot sess.credit_waiters
          end
        end
        else if !budget = 0 then push_txq t slot
  | _ -> ()

and send_tx_item t slot args cli =
  let sess = slot.session in
  let k = cli.num_tx in
  let stamp = now_ts t in
  cli.tx_ts.(k mod Array.length cli.tx_ts) <- stamp;
  sess.credits <- sess.credits - 1;
  ch t t.cost.credit_logic;
  let mtu = t.cfg.mtu in
  let flow = Wire.flow_hash ~src_host:t.host ~dst_host:sess.remote_host ~sn:sess.sn in
  let pkt, wire_bytes =
    if k < cli.n_req_pkts then begin
      let msg_size = Msgbuf.size args.req in
      let len = Pkthdr.chunk_bytes ~mtu ~msg_size k in
      ch t t.cost.tx_data_pkt;
      ( Wire.make t.pool ~src_host:t.host ~dst_host:sess.remote_host
          ~dst_rpc:sess.remote_rpc_id ~wire_overhead:t.cfg.wire_overhead ~flow
          ~req_type:args.req_type ~msg_size ~dest_session:sess.remote_sn ~pkt_type:Pkthdr.Req
          ~pkt_num:k ~req_num:slot.req_num ~token:sess.token
          ~data:(Msgbuf.payload args.req)
          ~off:(Msgbuf.unsafe_offset args.req + (k * mtu))
          ~len,
        len + t.cfg.wire_overhead )
    end
    else begin
      (* Request-for-response for response packet (k - N + 1). *)
      ch t t.cost.tx_ctrl_pkt;
      ( Wire.make t.pool ~src_host:t.host ~dst_host:sess.remote_host
          ~dst_rpc:sess.remote_rpc_id ~wire_overhead:t.cfg.wire_overhead ~flow
          ~req_type:args.req_type ~msg_size:0 ~dest_session:sess.remote_sn ~pkt_type:Pkthdr.Rfr
          ~pkt_num:(k - cli.n_req_pkts + 1) ~req_num:slot.req_num ~token:sess.token
          ~data:Bytes.empty ~off:0 ~len:0,
        t.cfg.wire_overhead )
    end
  in
  (* Only retransmitted REQUEST DATA packets reference the request msgbuf
     from the rate limiter; RFRs are header-only, so they never force
     response drops (Appendix C). *)
  let is_retx = k < cli.max_tx && k < cli.n_req_pkts in
  cli.num_tx <- k + 1;
  if cli.num_tx > cli.max_tx then cli.max_tx <- cli.num_tx;
  if Obs.Trace.enabled t.trace then tag_pkt t ~ssn:sess.sn pkt;
  transmit_cc t slot pkt ~wire_bytes ~tx_item:k ~is_retx

(* {2 Retransmission (go-back-N, §5.3)} *)

and arm_rto t slot =
  let timer =
    match slot.rto with
    | Some timer -> timer
    | None ->
        let timer =
          Sim.Timer.create t.engine ~callback:(fun () ->
              if slot.busy && not t.process.dead then begin
                if Obs.Trace.enabled t.trace then
                  trace_sslot t ~name:"rto_fire" ~sn:slot.session.sn
                    ~req:slot.req_num [];
                slot.needs_retx <- true;
                Queue.add slot t.retxq;
                wake t
              end)
        in
        slot.rto <- Some timer;
        timer
  in
  Sim.Timer.arm_after timer t.cfg.rto_ns

and do_retransmit t slot =
  slot.needs_retx <- false;
  if slot.busy then
    match slot.cli with
    | None -> ()
    | Some cli ->
        let sess = slot.session in
        cli.consec_retx <- cli.consec_retx + 1;
        if cli.consec_retx >= Config.max_retransmits then begin
          (* Retry budget exhausted: the peer is gone (crashed, restarted
             without our session state, or partitioned). Reset the session
             instead of retransmitting forever. *)
          ch t (Transport.Iface.flush_time_ns t.transport);
          reset_session t sess
        end
        else begin
          if 2 * cli.consec_retx > Config.max_retransmits then
            t.stats.Rpc_stats.retx_warnings <- t.stats.Rpc_stats.retx_warnings + 1;
          t.stats.Rpc_stats.retransmits <- t.stats.Rpc_stats.retransmits + 1;
          cli.retransmits <- cli.retransmits + 1;
          sess.retransmits <- sess.retransmits + 1;
          if Obs.Trace.enabled t.trace then
            trace_sslot t ~name:"retx" ~sn:sess.sn ~req:slot.req_num
              [ ("consec", Obs.Trace.I cli.consec_retx) ];
          (* Roll back wire state and reclaim credits. *)
          sess.credits <- sess.credits + (cli.num_tx - cli.num_rx);
          cli.num_tx <- cli.num_rx;
          (* Flush the TX DMA queue so no stale reference to the request
             msgbuf survives (§4.2.2): expensive, but only on loss. *)
          ch t (Transport.Iface.flush_time_ns t.transport);
          arm_rto t slot;
          push_txq t slot
        end

(* {2 RX demultiplexing} *)

and rx_pkt t pkt =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"pkt" ~name:"rx"
      ~pid:t.pid ~tid:t.tid
      [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ];
  (match pkt.Netsim.Packet.body with
  | Wire.Pkt _ when not (Wire.verify pkt) ->
      (* Failed wire checksum: the packet was corrupted in flight. Drop it;
         the sender's RTO recovers it like a loss. *)
      t.stats.Rpc_stats.rx_pkts <- t.stats.Rpc_stats.rx_pkts + 1;
      t.stats.Rpc_stats.rx_corrupt <- t.stats.Rpc_stats.rx_corrupt + 1;
      ch t t.cost.rx_pkt
  | Wire.Pkt { hdr; data; off; len; _ } -> (
      t.stats.Rpc_stats.rx_pkts <- t.stats.Rpc_stats.rx_pkts + 1;
      ch t t.cost.rx_pkt;
      let sn = hdr.Pkthdr.dest_session in
      if sn >= 0 && sn < Array.length t.sessions then
        match t.sessions.(sn) with
        | None -> ()
        | Some sess when hdr.Pkthdr.token <> sess.token ->
            (* Stale traffic for a recycled session number: the sender has
               not yet noticed that the session it knew died (typically a
               crash-restart it could not observe). Without this check the
               packet would be matched to an unrelated session's slot. *)
            ()
        | Some sess -> (
            let slot = Session.slot sess (hdr.req_num mod Config.req_window) in
            match (hdr.pkt_type, sess.role) with
            | (Pkthdr.Cr | Pkthdr.Resp), Client -> client_rx t sess slot hdr data off len
            | (Pkthdr.Req | Pkthdr.Rfr), Server -> server_rx t sess slot hdr data off len
            | _ -> () (* role mismatch: corrupt/stale packet *)))
  | _ -> ());
  (* RX is the end of the packet's life: the payload has been copied into a
     msgbuf (or viewed out of the backing bytes), so the record itself can
     return to its sender's free-list. *)
  Netsim.Packet.free pkt

(* {2 Client RX} *)

and accept_rx_item t slot (cli : client_info) =
  let sess = slot.session in
  let i = cli.num_rx in
  cli.num_rx <- i + 1;
  cli.consec_retx <- 0 (* progress: the retry budget is consecutive RTOs *);
  sess.credits <- sess.credits + 1;
  ch t t.cost.credit_logic;
  (* A credit became available: unpark slots blocked on credits. *)
  while not (Queue.is_empty sess.credit_waiters) do
    let waiter = Queue.take sess.credit_waiters in
    waiter.in_credit_waitq <- false;
    if waiter.busy then push_txq t waiter
  done;
  let stamp = now_ts t in
  let sample = Sim.Time.sub stamp cli.tx_ts.(i mod Array.length cli.tx_ts) in
  (match t.rtt_probe with Some probe -> probe sample | None -> ());
  if t.cfg.opts.congestion_control then begin
    ch t t.cost.cc_check;
    cc_update t sess ~sample_rtt_ns:sample
  end;
  arm_rto t slot

and client_rx t sess slot hdr data off len =
  if slot.busy && hdr.Pkthdr.req_num = slot.req_num then
    match (slot.args, slot.cli) with
    | Some args, Some cli -> (
        match hdr.pkt_type with
        | Pkthdr.Cr ->
            (* CR for request packet [pkt_num] is RX item [pkt_num]. In
               cumulative mode one CR acknowledges every request packet up
               to [pkt_num]. *)
            let acceptable =
              if t.cfg.opts.cumulative_crs then
                hdr.pkt_num >= cli.num_rx && hdr.pkt_num < cli.n_req_pkts - 1
              else hdr.pkt_num = cli.num_rx
            in
            if acceptable then begin
              (* Intermediate items return credits without separate RTT
                 samples; the newest item carries the sample. *)
              while cli.num_rx < hdr.pkt_num do
                cli.num_rx <- cli.num_rx + 1;
                sess.credits <- sess.credits + 1
              done;
              accept_rx_item t slot cli;
              if client_next_item_ready cli && sess.credits > 0 then begin
                push_txq t slot;
                wake t
              end
            end
        | Pkthdr.Resp ->
            let item = cli.n_req_pkts - 1 + hdr.pkt_num in
            if item = cli.num_rx then begin
              if cli.retx_in_wheel then
                (* A retransmitted packet of this request sits in the rate
                   limiter: drop the response (Appendix C). *)
                ()
              else begin
                if hdr.pkt_num = 0 then begin
                  if hdr.msg_size > Msgbuf.max_size args.resp then
                    invalid_arg "eRPC: response larger than client's response msgbuf";
                  Msgbuf.unsafe_set_size args.resp hdr.msg_size;
                  cli.n_resp_pkts <- Int.max 1 ((hdr.msg_size + t.cfg.mtu - 1) / t.cfg.mtu)
                end;
                (* Copy response data into the client's response msgbuf
                   (§3.1); this copy is a real CPU cost (§6.4). *)
                if len > 0 then begin
                  Msgbuf.blit_from_bytes data ~src_off:off args.resp
                    ~dst_off:(hdr.pkt_num * t.cfg.mtu) ~len;
                  charge_memcpy t len
                end;
                accept_rx_item t slot cli;
                if cli.num_rx = cli.n_req_pkts - 1 + cli.n_resp_pkts then
                  complete_request t slot args
                else if client_next_item_ready cli && sess.credits > 0 then begin
                  push_txq t slot;
                  wake t
                end
              end
            end
        | Pkthdr.Req | Pkthdr.Rfr -> ())
    | _ -> ()

and complete_request t slot args =
  let sess = slot.session in
  disarm_rto slot;
  t.stats.Rpc_stats.completed <- t.stats.Rpc_stats.completed + 1;
  let req_num = slot.req_num in
  slot.busy <- false;
  slot.args <- None;
  Msgbuf.return_to_app args.req;
  Msgbuf.return_to_app args.resp;
  ch t t.cost.continuation;
  (* Completion hook (typed response deserialization) charges before the
     request is stamped done, so its CPU time lands inside this request's
     lifetime rather than leaking into the next one. *)
  args.on_complete args.resp;
  if Obs.Trace.enabled t.trace then
    (* Stamped where the serial CPU work charged so far finishes. *)
    trace_sslot t
      ~ts:(Int.max (Sim.Engine.now t.engine) (Sim.Cpu.next_free t.cpu))
      ~name:"req_done" ~sn:sess.sn ~req:req_num [];
  args.cont (Ok ());
  (* Admit backlogged requests into freed slots. *)
  admit_backlog t sess

and admit_backlog t sess =
  let continue = ref true in
  while !continue && not (Queue.is_empty sess.backlog) do
    match Session.free_slot sess with
    | Some free -> start_request t free (Queue.take sess.backlog)
    | None -> continue := false
  done

(* {2 Server RX} *)

and send_server_pkt t sess slot ~pkt_type ~pkt_num ~msg_size ~req_type ~data ~off ~len =
  let flow = Wire.flow_hash ~src_host:t.host ~dst_host:sess.remote_host ~sn:sess.remote_sn in
  let pkt =
    Wire.make t.pool ~src_host:t.host ~dst_host:sess.remote_host ~dst_rpc:sess.remote_rpc_id
      ~wire_overhead:t.cfg.wire_overhead ~flow ~req_type ~msg_size ~dest_session:sess.remote_sn
      ~pkt_type ~pkt_num ~req_num:slot.req_num ~token:sess.token ~data ~off ~len
  in
  (match pkt_type with
  | Pkthdr.Cr -> ch t t.cost.tx_ctrl_pkt
  | _ -> ch t t.cost.tx_data_pkt);
  if Obs.Trace.enabled t.trace then tag_pkt t ~ssn:sess.sn pkt;
  post_pkt t pkt

and send_cr t sess slot ~pkt_num ~req_type =
  send_server_pkt t sess slot ~pkt_type:Pkthdr.Cr ~pkt_num ~msg_size:0 ~req_type
    ~data:Bytes.empty ~off:0 ~len:0

and send_resp_pkt t sess slot ~pkt_num =
  match slot.srv with
  | Some ({ resp_buf = Some resp; _ } as srv) when srv.handler_done ->
      let msg_size = Msgbuf.size resp in
      send_server_pkt t sess slot ~pkt_type:Pkthdr.Resp ~pkt_num ~msg_size ~req_type:0
        ~data:(Msgbuf.payload resp)
        ~off:(Msgbuf.unsafe_offset resp + (pkt_num * t.cfg.mtu))
        ~len:(Pkthdr.chunk_bytes ~mtu:t.cfg.mtu ~msg_size pkt_num)
  | _ -> ()

and begin_new_request t sess slot hdr =
  let srv = Session.server_info slot in
  assert (not srv.handler_running);
  (* The previous response buffer is released: the client has completed the
     previous request, or it would not have issued a new one on this slot. *)
  (match srv.resp_buf with
  | Some resp when Msgbuf.owner resp = Msgbuf.Owned_by_erpc -> Msgbuf.return_to_app resp
  | _ -> ());
  srv.resp_buf <- None;
  (* Recycle the assembly buffer: the completed request's bytes are dead,
     and the next multi-packet request on this slot can blit into the same
     storage instead of allocating. Views alias the RX ring — never kept. *)
  (match srv.req_buf with
  | Some b when not (Msgbuf.is_view b) -> srv.spare_req_buf <- Some b
  | _ -> ());
  srv.req_buf <- None;
  srv.handler_done <- false;
  srv.num_rx <- 0;
  srv.n_req_pkts <- Int.max 1 ((hdr.Pkthdr.msg_size + t.cfg.mtu - 1) / t.cfg.mtu);
  slot.req_num <- hdr.req_num;
  slot.busy <- true;
  ignore sess

and server_rx t sess slot hdr data off len =
  match hdr.Pkthdr.pkt_type with
  | Pkthdr.Req ->
      if hdr.req_num < slot.req_num then () (* stale request: already superseded *)
      else begin
        if hdr.req_num > slot.req_num then begin_new_request t sess slot hdr;
        let srv = Session.server_info slot in
        let p = hdr.pkt_num in
        if p < srv.num_rx then begin
          (* Duplicate from a client rollback: re-ack idempotently; the
             handler is never run twice (at-most-once). Cumulative mode
             re-acks everything received so far. *)
          if p < srv.n_req_pkts - 1 then begin
            let ack =
              if t.cfg.opts.cumulative_crs then Int.min (srv.num_rx - 1) (srv.n_req_pkts - 2)
              else p
            in
            send_cr t sess slot ~pkt_num:ack ~req_type:hdr.req_type
          end
          else if srv.handler_done then send_resp_pkt t sess slot ~pkt_num:0
        end
        else if p > srv.num_rx then () (* reordered: treated as loss *)
        else begin
          srv.num_rx <- p + 1;
          store_req_data t slot srv hdr data off len;
          if p < srv.n_req_pkts - 1 then begin
            let send_now =
              (not t.cfg.opts.cumulative_crs)
              || (p + 1) mod Config.cr_stride = 0
              || p = srv.n_req_pkts - 2
            in
            if send_now then send_cr t sess slot ~pkt_num:p ~req_type:hdr.req_type
          end
          else t.invoke slot srv hdr.req_type
        end
      end
  | Pkthdr.Rfr ->
      if hdr.req_num = slot.req_num then
        send_resp_pkt t sess slot ~pkt_num:hdr.pkt_num
  | Pkthdr.Cr | Pkthdr.Resp -> ()

and store_req_data t _slot srv hdr data off len =
  let single_pkt = srv.n_req_pkts = 1 in
  let zero_copy_ok =
    single_pkt && t.cfg.opts.zero_copy_rx && Int_tbl.mem t.process.dispatch_types hdr.Pkthdr.req_type
  in
  if zero_copy_ok then
    (* Dispatch handler runs directly on the RX ring buffer (§4.2.3). *)
    srv.req_buf <- Some (Msgbuf.view data ~off ~len)
  else begin
    (match srv.req_buf with
    | Some _ -> ()
    | None ->
        (* The modeled allocation cost is charged whether or not the
           host-level buffer is recycled, so traces are identical either
           way. *)
        ch t t.cost.dyn_alloc;
        let buf =
          match srv.spare_req_buf with
          | Some spare when Msgbuf.max_size spare >= hdr.msg_size ->
              srv.spare_req_buf <- None;
              Msgbuf.unsafe_set_size spare hdr.msg_size;
              spare
          | _ ->
              let b = Msgbuf.alloc ~max_size:hdr.msg_size in
              Msgbuf.take_for_erpc b;
              b
        in
        srv.req_buf <- Some buf);
    if len > 0 then begin
      match srv.req_buf with
      | Some buf ->
          Msgbuf.blit_from_bytes data ~src_off:off buf ~dst_off:(hdr.pkt_num * t.cfg.mtu) ~len;
          charge_memcpy t len
      | None -> assert false
    end
  end

(* {2 Client request admission} *)

and start_request t slot args =
  let sess = slot.session in
  slot.req_num <- slot.req_num + Config.req_window;
  slot.busy <- true;
  slot.args <- Some args;
  slot.issue_time <- Sim.Engine.now t.engine;
  if Obs.Trace.enabled t.trace then
    trace_sslot t ~name:"req_start" ~sn:sess.sn ~req:slot.req_num [];
  let cli = Session.client_info slot ~credits:sess.credit_limit in
  (* Completion is blocked while a retransmitted copy is wheeled, so a new
     request can only start once no rate-limiter reference to the previous
     request's buffers exists. *)
  assert (not cli.retx_in_wheel);
  cli.num_tx <- 0;
  cli.num_rx <- 0;
  cli.max_tx <- 0;
  cli.consec_retx <- 0;
  cli.n_req_pkts <- Msgbuf.num_pkts args.req ~mtu:t.cfg.mtu;
  cli.n_resp_pkts <- -1;
  arm_rto t slot;
  push_txq t slot;
  wake t

(* Completion of a server handler (possibly from a background worker):
   record the response buffer and transmit response packet 0. *)
let enqueue_response t slot srv resp =
  let sess = slot.session in
  srv.handler_running <- false;
  srv.handler_done <- true;
  if Obs.Trace.enabled t.trace then
    trace_sslot t ~name:"srv_resp" ~sn:sess.sn ~req:slot.req_num [];
  if Msgbuf.owner resp = Msgbuf.Owned_by_app then Msgbuf.take_for_erpc resp;
  srv.resp_buf <- Some resp;
  send_resp_pkt t sess slot ~pkt_num:0

(* {2 Request-handle support}

   A handler runs on [cpu]: the dispatch thread's, or a worker's. *)

(* The response from a worker returns to the dispatch thread through the
   background queue once the worker's charged work has finished (§3.2). *)
let respond t cpu ~req_type slot srv resp =
  if cpu == t.cpu then enqueue_response t slot srv resp
  else
    Sim.Engine.schedule t.engine (Sim.Cpu.next_free cpu) (fun () ->
        if Obs.Trace.enabled t.trace then
          Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"rpc"
            ~name:"worker_done" ~pid:t.pid ~tid:t.tid
            [ ("type", Obs.Trace.I req_type) ];
        Queue.add
          (fun () ->
            ch t (t.cost.worker_handoff / 2);
            enqueue_response t slot srv resp)
          t.bgq;
        wake t)

(* The slot's preallocated MTU-sized msgbuf when the response fits (§4.3);
   otherwise a fresh one, whose allocation the handler's thread pays. *)
let init_response t cpu slot size =
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
    charge t cpu t.cost.dyn_alloc;
    Msgbuf.alloc ~max_size:size
  end

let codec_backend t = t.cfg.codec_backend

(* Charge one typed encode/decode to [cpu], priced by the cost model. On
   the dispatch thread it also emits a "codec" span over the charged
   interval (worker CPUs have no trace track). *)
let charge_codec t cpu ~deser ~backend ~leaves ~bytes =
  let cost = Cost_model.codec_cost t.cost ~deser ~backend ~leaves ~bytes in
  if cpu == t.cpu && Obs.Trace.enabled t.trace then begin
    let ts = Int.max (Sim.Engine.now t.engine) (Sim.Cpu.next_free cpu) in
    ignore (Sim.Cpu.charge cpu cost);
    Obs.Trace.complete t.trace ~ts
      ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free cpu) ts))
      ~cat:"codec"
      ~name:(if deser then "deser" else "ser")
      ~pid:t.pid ~tid:t.tid
      [ ("leaves", Obs.Trace.I leaves); ("bytes", Obs.Trace.I bytes) ]
  end
  else ignore (Sim.Cpu.charge cpu cost)

let enqueue_request_hooked t sess ~req_type ~req ~resp ~on_complete ~cont =
  if sess.role <> Client then invalid_arg "Rpc.enqueue_request: not a client session";
  if Msgbuf.size req > Config.max_msg_size then
    invalid_arg "Rpc.enqueue_request: request exceeds the maximum message size";
  ch t t.cost.enqueue_request;
  t.stats.Rpc_stats.issued <- t.stats.Rpc_stats.issued + 1;
  Msgbuf.take_for_erpc req;
  Msgbuf.take_for_erpc resp;
  let args = { req_type; req; resp; on_complete; cont } in
  match sess.state with
  | Error _ | Destroyed ->
      Msgbuf.return_to_app req;
      Msgbuf.return_to_app resp;
      Sim.Engine.schedule_after t.engine 0 (fun () ->
          cont (Stdlib.Error (Err.Session_error "session closed")))
  | Connect_pending -> Queue.add args sess.backlog
  | Connected -> (
      match Session.free_slot sess with
      | Some slot -> start_request t slot args
      | None -> Queue.add args sess.backlog)

(* {2 The event loop} *)

let run_tx_burst t =
  let budget = ref Config.tx_batch in
  let n_in_txq = Queue.length t.txq in
  let serviced = ref 0 in
  while !budget > 0 && !serviced < n_in_txq && not (Queue.is_empty t.txq) do
    incr serviced;
    let slot = Queue.take t.txq in
    slot.in_txq <- false;
    service_slot_tx t slot budget
  done

(* One event-loop activation: drain pending work, charging modeled CPU.
   Mirrors eRPC's run_event_loop_once: retransmissions, RX burst,
   background responses, rate-limiter wheel, TX burst. *)
let activate t =
  t.loop_scheduled <- false;
  if not t.process.dead then begin
    let act_start = Sim.Engine.now t.engine in
    t.batch_ts <- act_start;
    ch t t.cost.loop_overhead;
    if t.cfg.opts.congestion_control && t.cfg.opts.batched_timestamps then
      ch t (2 * t.cost.rdtsc) (* one timestamp per RX batch, one per TX batch *);
    (* Retransmissions queued by RTO timers. *)
    while not (Queue.is_empty t.retxq) do
      do_retransmit t (Queue.take t.retxq)
    done;
    (* RX burst: callback iteration straight off the ring, no list. *)
    let n_rx = Transport.Iface.rx_burst t.transport ~max:Config.rx_batch t.rx_each in
    if n_rx > 0 then ch t (Transport.Iface.replenish_rx t.transport n_rx);
    (* Background-thread completions (worker handler responses). *)
    while not (Queue.is_empty t.bgq) do
      (Queue.take t.bgq) ()
    done;
    (* Rate limiter. *)
    (match t.limiter with
    | Some lim when Wheel.pending lim.wheel > 0 ->
        ignore (Wheel.poll lim.wheel ~now:(Sim.Engine.now t.engine) t.wheel_fire_fn)
    | _ -> ());
    (* TX burst. *)
    run_tx_burst t;
    (* Re-arm if work remains. *)
    if
      Transport.Iface.rx_ring_depth t.transport > 0
      || (not (Queue.is_empty t.txq))
      || (not (Queue.is_empty t.retxq))
      || not (Queue.is_empty t.bgq)
    then schedule_activation t;
    if Obs.Trace.enabled t.trace then
      (* One span per event-loop activation, spanning the CPU time this
         activation charged to the dispatch timeline. *)
      Obs.Trace.complete t.trace ~ts:act_start
        ~dur:(Int.max 0 (Sim.Time.sub (Sim.Cpu.next_free t.cpu) act_start))
        ~cat:"rpc" ~name:"activate" ~pid:t.pid ~tid:t.tid
        [ ("rx", Obs.Trace.I n_rx) ]
  end

(* {2 Session table} *)

let n_sessions t = t.n_sessions

let add_session t sess =
  let sn = sess.sn in
  if sn >= Array.length t.sessions then begin
    let cap = Int.max 8 (Int.max (2 * Array.length t.sessions) (sn + 1)) in
    let grown = Array.make cap None in
    Array.blit t.sessions 0 grown 0 (Array.length t.sessions);
    t.sessions <- grown
  end;
  t.sessions.(sn) <- Some sess;
  t.n_sessions <- t.n_sessions + 1

let get_session t sn =
  if sn >= 0 && sn < Array.length t.sessions then t.sessions.(sn) else None

let remove_session t sn =
  t.sessions.(sn) <- None;
  t.n_sessions <- t.n_sessions - 1;
  if sn < t.sn_hint then t.sn_hint <- sn

let iter_sessions t f =
  Array.iter (function Some sess -> f sess | None -> ()) t.sessions

(* Lowest free sn. The hint invariant (no free index below [sn_hint])
   makes the amortized cost O(1); the result is identical to scanning
   from 0. *)
let fresh_sn t =
  let rec go i = if i < Array.length t.sessions && t.sessions.(i) <> None then go (i + 1) else i in
  let sn = go t.sn_hint in
  t.sn_hint <- sn;
  sn

(* Timely rate updates performed across all sessions, for the
   factor-analysis accounting. *)
let cc_updates t =
  Array.fold_left
    (fun acc s ->
      match s with
      | Some { cc = Some timely; _ } -> acc + Timely.updates timely
      | _ -> acc)
    0 t.sessions

(* Local crash: every session, queued transmission, pending
   retransmission, worker completion and paced packet is lost with the
   process, and the RX ring with it. *)
let clear_on_crash t =
  Array.fill t.sessions 0 (Array.length t.sessions) None;
  t.n_sessions <- 0;
  t.sn_hint <- 0;
  Queue.clear t.txq;
  Queue.clear t.retxq;
  Queue.clear t.bgq;
  (* Paced packets die with the process; their pool takes them back. *)
  (match t.limiter with
  | Some lim ->
      Array.iter (fun h -> if h >= 0 then Netsim.Packet.free (Netsim.Packet.get t.packets h)) lim.pkt
  | None -> ());
  t.limiter <- None;
  Transport.Iface.reset_rx t.transport

let set_rtt_probe t probe = t.rtt_probe <- Some probe
let set_invoke t f = t.invoke <- f

let create ~engine ~host ~cfg ~cost ~cpu ~transport ~process ~packets ~stats ~tid =
  let t =
    {
      engine;
      host;
      cfg;
      cost;
      cpu;
      transport;
      process;
      stats;
      packets;
      pool = Wire.create_pool packets;
      sessions = Array.make 4 None;
      n_sessions = 0;
      sn_hint = 0;
      txq = Queue.create ();
      retxq = Queue.create ();
      bgq = Queue.create ();
      limiter = None;
      batch_ts = Sim.Time.zero;
      loop_scheduled = false;
      rtt_probe = None;
      invoke = (fun _ _ _ -> ());
      activate_ev = Sim.Engine.no_handler;
      wake_ev = Sim.Engine.no_handler;
      rx_each = ignore;
      wheel_fire_fn = ignore;
      trace = Sim.Engine.trace engine;
      pid = Obs.Trace.host_pid host;
      tid;
    }
  in
  t.activate_ev <- Sim.Engine.handler engine ~layer:Rpc (fun _ -> activate t);
  t.wake_ev <- Sim.Engine.handler engine ~layer:Rpc (fun _ -> wake t);
  t.rx_each <- (fun pkt -> rx_pkt t pkt);
  t.wheel_fire_fn <- (fun entry -> wheel_fire t entry);
  Transport.Iface.set_rx_notify transport (fun () -> wake t);
  t
