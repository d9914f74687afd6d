(* Modeled handler CPU costs (ns), carried over from the single-group
   integration. *)
let raft_receive_cost = 250
let raft_submit_cost = 220
let codec_cost = 110

let periodic_tick_ns = 500_000

(* Int-keyed tables compare keys with [Int.equal], not the polymorphic
   compare; the dedup table's int key also spares hashing a tuple. *)
module Int_tbl = Hashtbl.Make (Int)

(* Client ids and seqs are u32 on the wire, and [Kv_client] ids stay below
   2^31, so the key is injective over every pair a replica can apply. *)
let dedup_key ~client_id ~seq = (client_id lsl 32) lor seq

(* A pooled replica-to-replica request: the frame and reply buffers plus
   the continuation that feeds the reply to its shard's core, built once
   and reused by every send that completes normally. *)
type raft_call = {
  frame : Erpc.Msgbuf.t;
  reply : Erpc.Msgbuf.t;
  mutable on_reply : (unit, Erpc.Err.t) result -> unit;
}

(* Capacity of a pooled reply buffer: any Raft reply fits. *)
let reply_capacity = 256

type shard_state = {
  shard : int;
  group : int array;  (** hosts; array position = Raft id *)
  self_id : int;
  mutable core : string Raft.Core.t option;
  mutable store : Mica.Store.t;
  mutable dedup : unit Int_tbl.t;  (** [dedup_key] of every applied write *)
  pending : (Erpc.Req_handle.t * Sim.Time.t) Int_tbl.t;  (** log index *)
}

type t = {
  host : int;
  fabric : Erpc.Fabric.t;
  nexus : Erpc.Nexus.t;
  rpc : Erpc.Rpc.t;
  engine : Sim.Engine.t;
  map : Shard_map.t;
  rng : Sim.Rng.t;
  shard_states : shard_state array;  (** ascending shard order *)
  peer_sessions : Erpc.Session.session Int_tbl.t;  (** keyed by host *)
  mutable pending_reply : (int * string Raft.Core.msg) option;
  mutable calls : raft_call Pool.t;
  commit_lat : Stats.Hist.t;
  trace : Obs.Trace.t;
  mutable incarnation : int;
  mutable stopped : bool;
  mutable raft_drops : int;
  mutable dedup_hits : int;
  mutable restarts : int;
  mutable noop_seq : int;
  mutable on_apply : shard:int -> incarnation:int -> client_id:int -> seq:int -> unit;
}

let host t = t.host
let shards t = Array.to_list (Array.map (fun st -> st.shard) t.shard_states)
let commit_latencies t = t.commit_lat
let raft_drops t = t.raft_drops
let dedup_hits t = t.dedup_hits
let restarts t = t.restarts
let set_on_apply t f = t.on_apply <- f
let stop t = t.stopped <- true

let core st =
  match st.core with Some c -> c | None -> failwith "Replica: core not ready"

let state_for t shard =
  (* At most a handful of shards per host: linear scan beats hashing. *)
  let rec go i =
    if i >= Array.length t.shard_states then None
    else if t.shard_states.(i).shard = shard then Some t.shard_states.(i)
    else go (i + 1)
  in
  go 0

let state_exn t shard =
  match state_for t shard with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Replica: shard %d not on host %d" shard t.host)

let is_leader t ~shard =
  match state_for t shard with
  | Some st -> Raft.Core.role (core st) = Raft.Core.Leader
  | None -> false

let raft t ~shard = core (state_exn t shard)
let store t ~shard = (state_exn t shard).store

(* Leader hint as a host id, from this shard's core. *)
let hint_host st =
  match Raft.Core.leader_hint (core st) with
  | Some id when id < Array.length st.group -> Some st.group.(id)
  | _ -> None

let respond h ~status ~value =
  let resp = Erpc.Req_handle.init_response h ~size:(Kv_proto.resp_size ~value) in
  Kv_proto.write_response resp ~status ~value;
  Erpc.Req_handle.enqueue_response h resp

(* Fail every pending PUT of a shard we no longer lead: the entries may
   still commit under the new leader, but *we* can't acknowledge them, so
   the client must retry (dedup makes the retry safe). Sorted index order
   keeps the response sequence independent of Hashtbl internals. *)
let fail_pending st =
  if Int_tbl.length st.pending > 0 then begin
    let idxs = Int_tbl.fold (fun i _ acc -> i :: acc) st.pending [] in
    let hint = hint_host st in
    List.iter
      (fun i ->
        let h, _ = Int_tbl.find st.pending i in
        Int_tbl.remove st.pending i;
        respond h ~status:(Kv_proto.Retry hint) ~value:None)
      (List.sort Int.compare idxs)
  end

let on_leadership_change t st =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"service" ~name:"leadership"
      ~pid:(Obs.Trace.host_pid t.host) ~tid:0
      [
        ("shard", Obs.Trace.I st.shard);
        ( "role",
          Obs.Trace.S
            (match Raft.Core.role (core st) with
            | Raft.Core.Leader -> "leader"
            | Raft.Core.Candidate -> "candidate"
            | Raft.Core.Follower -> "follower") );
      ];
  if Raft.Core.role (core st) <> Raft.Core.Leader then fail_pending st
  else begin
    (* Newly elected: replicate a no-op barrier so entries inherited from
       previous terms become committable (§5.4.2 only lets a leader count
       majorities for current-term entries — the LibRaft/etcd idiom).
       Deferred one event: notify fires from inside the core's role
       transition, before leader replication state is initialized. *)
    t.noop_seq <- t.noop_seq + 1;
    let seq = t.noop_seq in
    Sim.Engine.schedule_after t.engine 0 (fun () ->
        if
          (not (Erpc.Nexus.dead t.nexus))
          && Raft.Core.role (core st) = Raft.Core.Leader
        then ignore (Raft.Core.submit (core st) (Kv_proto.noop_cmd ~seq)))
  end

let apply_cmd t st index cmd =
  let client_id, seq, key, value = Kv_proto.decode_cmd cmd in
  if client_id = Kv_proto.noop_client_id then ()
  else begin
    let applied = dedup_key ~client_id ~seq in
    if Int_tbl.mem st.dedup applied then t.dedup_hits <- t.dedup_hits + 1
    else begin
      Int_tbl.replace st.dedup applied ();
      Mica.Store.put st.store ~key ~value;
      t.on_apply ~shard:st.shard ~incarnation:t.incarnation ~client_id ~seq
    end
  end;
  match Int_tbl.find_opt st.pending index with
  | None -> ()
  | Some (h, submitted) ->
      Int_tbl.remove st.pending index;
      Stats.Hist.record t.commit_lat (Sim.Time.sub (Sim.Engine.now t.engine) submitted);
      respond h ~status:Kv_proto.Ok_ ~value:None

let session_to t dst_host =
  match Int_tbl.find_opt t.peer_sessions dst_host with
  | Some sess
    when sess.Erpc.Session.state = Erpc.Session.Connected
         || sess.Erpc.Session.state = Erpc.Session.Connect_pending ->
      Some sess
  | _ ->
      if Erpc.Fabric.host_dead t.fabric dst_host then None
      else begin
        Int_tbl.remove t.peer_sessions dst_host;
        let sess =
          Erpc.Rpc.create_session t.rpc ~remote_host:dst_host ~remote_rpc_id:0 ()
        in
        Int_tbl.replace t.peer_sessions dst_host sess;
        Some sess
      end

(* A Raft message we cannot put on the wire right now. Raft's timeout
   machinery re-drives the exchange, but chaos debugging needs to *see*
   the drop: count it and stamp the trace. *)
let drop_raft t st ~dst_host =
  t.raft_drops <- t.raft_drops + 1;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"service" ~name:"raft_drop"
      ~pid:(Obs.Trace.host_pid t.host) ~tid:0
      [ ("shard", Obs.Trace.I st.shard); ("dst", Obs.Trace.I dst_host) ]

let new_call t ~frame_capacity =
  let call =
    {
      frame = Erpc.Msgbuf.alloc ~max_size:frame_capacity;
      reply = Erpc.Msgbuf.alloc ~max_size:reply_capacity;
      on_reply = ignore;
    }
  in
  call.on_reply <-
    (fun r ->
      match r with
      | Ok () when Erpc.Msgbuf.size call.reply > 4 ->
          let shard, reply = Kv_proto.read_raft_frame call.reply in
          Pool.release t.calls call;
          (* Feed whatever core now owns the shard: a restart in the
             meantime swapped in a new incarnation, which must see the
             reply (or safely ignore its stale term). *)
          (match state_for t shard with
          | Some st -> Raft.Core.receive (core st) reply
          | None -> ())
      | Ok () -> Pool.release t.calls call (* peer had no core for the shard *)
      | Error _ ->
          (* Peer failed; Raft re-drives via timeouts. The call is not
             reused: after a session reset, packets of its frame may still
             be in flight, and they alias the frame buffer. *)
          ());
  call

let send_raft t st dst msg =
  match msg with
  | Raft.Core.Request_vote_resp _ | Raft.Core.Append_entries_resp _ ->
      (* Ride back as the eRPC response of the frame being handled. *)
      t.pending_reply <- Some (st.shard, msg)
  | Raft.Core.Request_vote _ | Raft.Core.Append_entries _ -> (
      let dst_host = st.group.(dst) in
      match session_to t dst_host with
      | None -> drop_raft t st ~dst_host
      | Some sess ->
          let call = Pool.take t.calls in
          Kv_proto.write_raft_frame call.frame ~shard:st.shard msg;
          Erpc.Rpc.enqueue_request t.rpc sess ~req_type:Kv_proto.raft_req_type
            ~req:call.frame ~resp:call.reply ~cont:call.on_reply)

let make_core t st ?stable () =
  let peers =
    Array.of_list
      (List.filter (fun i -> i <> st.self_id)
         (List.init (Array.length st.group) Fun.id))
  in
  Raft.Core.create ~id:st.self_id ~peers ?stable
    ~notify:(fun () -> on_leadership_change t st)
    ~send:(fun dst msg -> send_raft t st dst msg)
    ~apply:(fun index cmd -> apply_cmd t st index cmd)
    ~random:(fun n -> Sim.Rng.int t.rng n)
    ()

(* Crash: every piece of volatile state is gone — stores, dedup tables,
   sessions, client handles. Only each core's stable record (the modeled
   disk) may survive into the next incarnation. *)
let on_killed t =
  Array.iter
    (fun st ->
      Int_tbl.reset st.pending (* handles died with the host; never respond *))
    t.shard_states;
  Int_tbl.reset t.peer_sessions;
  t.pending_reply <- None

(* Restart: rebuild each shard from stable storage. The fresh core boots a
   follower with the persisted term/vote/log; as the commit index is
   re-learned from the group, [apply] replays the log into the fresh store
   and dedup table — log catch-up *is* state recovery. *)
let on_restarted t =
  t.restarts <- t.restarts + 1;
  t.incarnation <- t.incarnation + 1;
  Array.iter
    (fun st ->
      let stable = Raft.Core.stable_of (core st) in
      st.store <- Mica.Store.create ();
      st.dedup <- Int_tbl.create 256;
      st.core <- Some (make_core t st ~stable ()))
    t.shard_states;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"service" ~name:"replica_restart"
      ~pid:(Obs.Trace.host_pid t.host) ~tid:0
      [ ("incarnation", Obs.Trace.I t.incarnation) ]

let register_handlers t =
  Erpc.Nexus.register_handler t.nexus ~req_type:Kv_proto.raft_req_type
    ~mode:Erpc.Nexus.Dispatch (fun h ->
      let req = Erpc.Req_handle.get_request h in
      let shard, msg = Kv_proto.read_raft_frame req in
      Erpc.Req_handle.charge h (codec_cost + raft_receive_cost);
      match state_for t shard with
      | None ->
          (* Misrouted frame: answer so the sender's slot is freed. *)
          let resp = Erpc.Req_handle.init_response h ~size:4 in
          Erpc.Msgbuf.set_u32 resp ~off:0 1;
          Erpc.Req_handle.enqueue_response h resp
      | Some st -> (
          t.pending_reply <- None;
          Raft.Core.receive (core st) msg;
          let reply = t.pending_reply in
          t.pending_reply <- None;
          match reply with
          | Some (s, r) when s = shard ->
              let resp =
                Erpc.Req_handle.init_response h ~size:Kv_proto.raft_reply_max_size
              in
              Kv_proto.write_raft_frame resp ~shard:s r;
              Erpc.Req_handle.enqueue_response h resp
          | _ ->
              let resp = Erpc.Req_handle.init_response h ~size:4 in
              Erpc.Msgbuf.set_u32 resp ~off:0 1;
              Erpc.Req_handle.enqueue_response h resp));
  Erpc.Nexus.register_handler t.nexus ~req_type:Kv_proto.kv_req_type
    ~mode:Erpc.Nexus.Dispatch (fun h ->
      let r = Kv_proto.read_request (Erpc.Req_handle.get_request h) in
      match state_for t r.shard with
      | None -> respond h ~status:(Kv_proto.Retry None) ~value:None
      | Some st -> (
          match r.op with
          | Kv_proto.Get ->
              Erpc.Req_handle.charge h Mica.Store.lookup_cost_ns;
              if Raft.Core.role (core st) <> Raft.Core.Leader then
                respond h ~status:(Kv_proto.Not_leader (hint_host st)) ~value:None
              else (
                match Mica.Store.get st.store ~key:r.key with
                | Some v -> respond h ~status:Kv_proto.Ok_ ~value:(Some v)
                | None -> respond h ~status:Kv_proto.Not_found ~value:None)
          | Kv_proto.Put -> (
              Erpc.Req_handle.charge h (raft_submit_cost + Mica.Store.insert_cost_ns);
              if Int_tbl.mem st.dedup (dedup_key ~client_id:r.client_id ~seq:r.seq) then begin
                (* Retry of an already-applied PUT: re-ack, no new entry. *)
                t.dedup_hits <- t.dedup_hits + 1;
                respond h ~status:Kv_proto.Ok_ ~value:None
              end
              else
                let cmd =
                  Kv_proto.encode_cmd ~client_id:r.client_id ~seq:r.seq ~key:r.key
                    ~value:r.value
                in
                match Raft.Core.submit (core st) cmd with
                | Ok index ->
                    Int_tbl.replace st.pending index (h, Sim.Engine.now t.engine)
                | Error (`Not_leader _) ->
                    respond h ~status:(Kv_proto.Not_leader (hint_host st)) ~value:None)))

let create ~fabric ~nexus ~rpc ~map ~host () =
  let engine = Erpc.Fabric.engine fabric in
  let my_shards = Shard_map.shards_on map ~host in
  if my_shards = [] then
    invalid_arg (Printf.sprintf "Replica.create: no shards on host %d" host);
  let shard_states =
    Array.of_list
      (List.map
         (fun shard ->
           let group = Shard_map.group map ~shard in
           let self_id =
             match Array.to_list group |> List.mapi (fun i h -> (i, h))
                   |> List.find_opt (fun (_, h) -> h = host)
             with
             | Some (i, _) -> i
             | None -> assert false
           in
           {
             shard;
             group;
             self_id;
             core = None;
             store = Mica.Store.create ();
             dedup = Int_tbl.create 256;
             pending = Int_tbl.create 64;
           })
         my_shards)
  in
  let t =
    {
      host;
      fabric;
      nexus;
      rpc;
      engine;
      map;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      shard_states;
      peer_sessions = Int_tbl.create 8;
      pending_reply = None;
      calls = Pool.create (fun () -> invalid_arg "Replica: call pool not ready");
      commit_lat = Stats.Hist.create ();
      trace = Sim.Engine.trace engine;
      incarnation = 0;
      stopped = false;
      raft_drops = 0;
      dedup_hits = 0;
      restarts = 0;
      noop_seq = 0;
      on_apply = (fun ~shard:_ ~incarnation:_ ~client_id:_ ~seq:_ -> ());
    }
  in
  (* Every command a replica submits is [Kv_proto.cmd_size] bytes, so an
     AppendEntries frame is at most this large. *)
  let frame_capacity =
    Kv_proto.raft_frame_capacity ~max_entries:Raft.Core.max_entries_per_msg
  in
  t.calls <- Pool.create (fun () -> new_call t ~frame_capacity);
  Array.iter (fun st -> st.core <- Some (make_core t st ())) t.shard_states;
  register_handlers t;
  Erpc.Fabric.on_host_killed fabric (fun h ->
      if h = t.host then on_killed t else Int_tbl.remove t.peer_sessions h);
  Erpc.Fabric.on_host_restart fabric (fun h ->
      if h = t.host then on_restarted t else Int_tbl.remove t.peer_sessions h);
  let metrics = Sim.Engine.metrics engine in
  let labels = [ ("host", string_of_int host) ] in
  Obs.Metrics.counter metrics ~name:"service.raft_drops" ~labels (fun () ->
      t.raft_drops);
  Obs.Metrics.counter metrics ~name:"service.dedup_hits" ~labels (fun () ->
      t.dedup_hits);
  Obs.Metrics.counter metrics ~name:"service.restarts" ~labels (fun () -> t.restarts);
  Obs.Metrics.histogram metrics ~name:"service.commit_ns" ~labels t.commit_lat;
  (* Drive Raft time (LibRaft's raft_periodic). One perpetual loop per
     node: it no-ops while the host is down — the *new* incarnation's
     cores need the very next tick after restart — and stops only when the
     experiment quiesces via [stop]. *)
  let rec tick () =
    if not t.stopped then begin
      if not (Erpc.Nexus.dead t.nexus) then
        Array.iter
          (fun st -> Raft.Core.periodic (core st) ~elapsed_ns:periodic_tick_ns)
          t.shard_states;
      Sim.Engine.schedule_after engine periodic_tick_ns tick
    end
  in
  Sim.Engine.schedule_after engine periodic_tick_ns tick;
  t
