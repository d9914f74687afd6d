module T = Workload.Traffic_spec

type kind = Get | Put

type entry = {
  client_id : int;
  seq : int;
  key : string;
  kind : kind;
  value : string option;
  invoke_ns : int;
  complete_ns : int;
  result : Obs.Op.result;
}

type tenant_report = {
  tname : string;
  service : string;
  sources : int;
  offered_rps : float;
  whole : Harness.tally;
  steady : Harness.tally option;
  steady_tagged : int array;
  timeline : Obs.Timeline.t;
}

type result = {
  scenario : string;
  seed : int64;
  horizon_ns : int;
  tenants : tenant_report list;
  issued : int;
  acked : int;
  failed : int;
  raft_drops : int;
  dedup_hits : int;
  restarts : int;
  commit : Stats.Hist.t;
  attribution : Obs.Anatomy.attribution option;
  analyzed_rpcs : int;
  issued_rpcs : int;
  breakdowns : Obs.Anatomy.breakdown list;
  digest : string;
  events : int;
  violations : string list;
  trace : string;
  history : entry list;
}

let shards = 4
let replication = 3
let trace_capacity = 1 lsl 18
let echo_req_type_base = 16

(* Every tenant's first operations wait on session handshakes to hosts
   they have not talked to yet; at seed 42 the last such wait falls 2 ms
   after the start of cluster-load at full scale and 7 ms after it at a
   quarter of it. Operations issued from here on are the steady state. *)
let warmup_ns = 10_000_000

let shard_map (l : T.layout) =
  Service.Shard_map.create ~shards ~replication ~replica_hosts:l.replica_hosts

(* Stored values are zero-padded to the service's fixed value size. *)
let unpad v = match String.index_opt v '\000' with Some i -> String.sub v 0 i | None -> v

let committed_cmds r ~shard =
  let core = Service.Replica.raft r ~shard in
  let log = Raft.Core.log core in
  List.init (Raft.Core.commit_index core) (fun i ->
      let e = Raft.Log.get log (i + 1) in
      (e.Raft.Log.term, e.Raft.Log.cmd))

(* No acknowledged write lost, no write applied twice, and per group:
   logs converged, fully applied, stores equal to a dedup replay. *)
let check_invariants ~fabric ~map ~replicas ~history ~applied add =
  let violate fmt = Printf.ksprintf add fmt in
  Array.iter
    (fun h ->
      if Erpc.Fabric.host_dead fabric h then violate "host %d still dead after settle" h)
    (Service.Shard_map.replica_hosts map);
  for shard = 0 to shards - 1 do
    let group = Service.Shard_map.group map ~shard in
    let members =
      Array.map
        (fun h ->
          match Array.find_opt (fun r -> Service.Replica.host r = h) replicas with
          | Some r -> r
          | None -> failwith "replica node missing")
        group
    in
    let logs = Array.map (fun r -> committed_cmds r ~shard) members in
    Array.iteri
      (fun i r ->
        let core = Service.Replica.raft r ~shard in
        if Raft.Core.commit_index core <> List.length logs.(0) then
          violate "shard %d: commit index diverges at replica %d (%d vs %d)" shard
            group.(i)
            (Raft.Core.commit_index core)
            (List.length logs.(0));
        if Raft.Core.last_applied core <> Raft.Core.commit_index core then
          violate "shard %d: replica %d applied %d < committed %d" shard group.(i)
            (Raft.Core.last_applied core) (Raft.Core.commit_index core);
        if i > 0 && logs.(i) <> logs.(0) then
          violate "shard %d: committed log of replica %d diverges" shard group.(i))
      members;
    if List.length logs.(0) = 0 then violate "shard %d: nothing committed" shard;
    (* Reference state: replay the committed log with dedup, as replicas
       must have. *)
    let ref_store = Hashtbl.create 256 in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (_, cmd) ->
        let client_id, seq, key, value = Service.Kv_proto.decode_cmd cmd in
        if client_id <> Service.Kv_proto.noop_client_id then
          if not (Hashtbl.mem seen (client_id, seq)) then begin
            Hashtbl.replace seen (client_id, seq) ();
            Hashtbl.replace ref_store key value
          end)
      logs.(0);
    let ref_keys =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) ref_store [])
    in
    Array.iteri
      (fun i r ->
        let store = Service.Replica.store r ~shard in
        if Mica.Store.size store <> List.length ref_keys then
          violate "shard %d: replica %d store has %d keys, replay has %d" shard
            group.(i) (Mica.Store.size store) (List.length ref_keys);
        List.iter
          (fun k ->
            if Mica.Store.get store ~key:k <> Some (Hashtbl.find ref_store k) then
              violate "shard %d: replica %d diverges on key %S" shard group.(i) k)
          ref_keys)
      members;
    (* No acknowledged write lost: every client-acked (client_id, seq) of
       this shard is in the (identical) committed logs. *)
    List.iter
      (fun e ->
        if
          e.kind = Put && e.result = Obs.Op.Ok_
          && Service.Shard_map.shard_of_key map ~key:e.key = shard
          && not (Hashtbl.mem seen (e.client_id, e.seq))
        then
          violate "shard %d: acked write c%d/%d missing from committed log" shard
            e.client_id e.seq)
      history
  done;
  (* No write applied twice: the observer saw every (client, seq) mutate
     a given incarnation's store at most once. *)
  let dups =
    Hashtbl.fold (fun k n acc -> if n > 1 then (k, n) :: acc else acc) applied []
  in
  List.iter
    (fun ((host, inc, shard, client_id, seq), n) ->
      violate "double apply: host=%d inc=%d shard=%d c%d/%d applied %d times" host inc
        shard client_id seq n)
    (List.sort compare dups)

let run ~seed (s : T.scenario) =
  let l = s.layout in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun v -> violations := v :: !violations) fmt in
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx4 ~nodes:l.nodes ()) l.colocated
  in
  let config =
    { (Erpc.Config.of_cluster cluster) with Erpc.Config.shm_enabled = l.colocated <> [] }
  in
  let trace =
    if s.traced then Obs.Trace.create ~capacity:trace_capacity () else Obs.Trace.disabled
  in
  let d = Harness.deploy ~seed ~config ~trace cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  let map = shard_map l in
  (* Bootstrap: every shard elects before the measured window opens. *)
  let replicas, elected = Harness.start_replicas d ~map in
  if not elected then violate "bootstrap: not every shard elected a leader";
  (* Apply observer: counts effective store mutations per incarnation. *)
  let applied = Hashtbl.create 4096 in
  Array.iter
    (fun r ->
      let host = Service.Replica.host r in
      Service.Replica.set_on_apply r (fun ~shard ~incarnation ~client_id ~seq ->
          let k = (host, incarnation, shard, client_id, seq) in
          let n = Option.value ~default:0 (Hashtbl.find_opt applied k) in
          Hashtbl.replace applied k (n + 1)))
    replicas;
  (* Echo service: one req_type per echo tenant, so each tenant gets its
     own response size (a 64 kB transfer is acked with 32 B, not echoed). *)
  List.iteri
    (fun ti (t : T.tenant) ->
      match t.service with
      | Echo { resp_size; _ } ->
          Array.iter
            (fun h ->
              Harness.register_echo ~req_type:(echo_req_type_base + ti) ~resp_size
                d.nexuses.(h))
            l.echo_hosts
      | Kv _ -> ())
    s.tenants;
  (* The fault trace: fault applications, leader crashes and one line per
     completed KV operation. *)
  let ftrace = Faults.Trace.create () in
  let note fmt =
    Printf.ksprintf (fun m -> Faults.Trace.record ftrace ~at_ns:(Sim.Engine.now engine) m) fmt
  in
  let history = ref [] in
  let t0 = ref 0 in
  let kv_send ti keygen mix deadline_ns =
    let clients =
      Array.mapi
        (fun i h ->
          Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(h).(0) ~map
            ~client_id:(1 + (ti * 64) + i) ())
        l.client_hosts
    in
    let streams = match mix with T.Get_pct _ -> 1 | Get_every _ -> Array.length clients in
    let krngs = Array.init streams (fun _ -> Sim.Rng.split (Sim.Engine.rng engine)) in
    (* Operations go to the clients round robin; [issued.(c)] counts
       client [c]'s. *)
    let cursor = ref 0 and issued = Array.make (Array.length clients) 0 in
    fun (op : Obs.Op.t) k ->
      let c = !cursor and invoke_ns = op.issued_ns in
      cursor := (c + 1) mod Array.length clients;
      let j = issued.(c) in
      issued.(c) <- j + 1;
      let client = clients.(c) and client_id = 1 + (ti * 64) + c in
      let krng = krngs.(c mod streams) in
      let key =
        Workload.Keygen.encode
          (Workload.Keygen.next_at keygen krng ~now_ns:(invoke_ns - !t0))
      in
      let get =
        match mix with Get_pct p -> Sim.Rng.int krng 100 < p | Get_every n -> j mod n = n - 1
      in
      let finish kind value result seq outcome =
        history :=
          {
            client_id;
            seq;
            key;
            kind;
            value;
            invoke_ns;
            complete_ns = Sim.Engine.now engine;
            result;
          }
          :: !history;
        k result;
        note "%s c%d/%d %s"
          (match kind with Get -> "get" | Put -> "put")
          client_id seq
          (match outcome with
          | Error `Deadline -> "deadline"
          | Error (`Failed e) -> "err:" ^ e
          | Ok s -> s)
      in
      (* Continuations fire on later engine events, never within the call,
         so the seq cell is filled before any use. *)
      let seq = ref 0 in
      if get then
        seq :=
          Service.Kv_client.get ~record:op client ~key ~deadline_ns ~cont:(fun r ->
              finish Get
                (match r with Ok (Some v) -> Some (unpad v) | _ -> None)
                (Harness.of_get r) !seq
                (Result.map (function Some _ -> "hit" | None -> "miss") r))
      else begin
        op.kind <- 1;
        let value =
          match mix with
          | Get_pct _ -> Printf.sprintf "t%d-%08d" ti (op.id + 1)
          | Get_every _ -> Printf.sprintf "c%d-%06d" client_id j
        in
        seq :=
          Service.Kv_client.put ~record:op client ~key ~value ~deadline_ns ~cont:(fun r ->
              finish Put (Some value) (Harness.ok_or_failed r) !seq
                (Result.map (fun () -> "ok") r))
      end
  in
  (* Creation order (tenant list order; a KV tenant's clients, then its key
     streams) fixes every rng split, so runs are reproducible. Each tenant
     is one open-loop driver with one source per population member; its
     arrival instants and phase windows are anchored at the common start. *)
  let tenants =
    List.mapi
      (fun ti (t : T.tenant) ->
        let send, kinds =
          match t.service with
          | Kv { keygen; mix; deadline_ns } -> (kv_send ti keygen mix deadline_ns, 2)
          | Echo { req_size; resp_size } ->
              (* Sessions from every client host to every echo server,
                 taken round robin, so both source and destination
                 alternate. *)
              let endpoints =
                Array.concat
                  (List.map
                     (fun ch ->
                       let rpc = d.rpcs.(ch).(0) in
                       Array.map
                         (fun eh ->
                           (rpc, Harness.connect d rpc ~remote_host:eh ~remote_rpc_id:0))
                         l.echo_hosts)
                     (Array.to_list l.client_hosts))
              in
              ( Harness.erpc_send
                  ~payload:(Harness.Echo { req_size; resp_size })
                  ~req_type:(echo_req_type_base + ti) endpoints,
                1 )
        in
        let timeline = Obs.Timeline.create ~window_ns:s.window_ns ~horizon_ns:s.horizon_ns in
        let drv =
          Harness.driver ~engine ~timeline ~warmup_ns ~slots:t.max_outstanding
            ~latencies:(Array.init kinds (fun _ -> Stats.Hist.create ()))
            (Open { arrival = t.arrival; sources = t.sources; until_ns = s.horizon_ns })
            send
        in
        (t, drv, timeline))
      s.tenants
  in
  t0 := Sim.Engine.now engine;
  let t0 = !t0 in
  note "kv-chaos seed=%Ld scenario=%s" seed s.sname;
  let crash_leader ~shard ~down_ns () =
    let h =
      match Array.find_opt (fun r -> Service.Replica.is_leader r ~shard) replicas with
      | Some r -> Service.Replica.host r
      | None -> (Service.Shard_map.group map ~shard).(0)
    in
    note "crash-leader shard=%d host=%d down_ns=%d" shard h down_ns;
    Erpc.Fabric.crash_host d.fabric h ~down_ns
  in
  List.iter
    (function
      | T.Crash_leader { at_ns; shard; down_ns } ->
          Sim.Engine.schedule_after engine at_ns (crash_leader ~shard ~down_ns)
      | Scheduled _ -> ())
    s.faults;
  Faults.Injector.install
    (Faults.Injector.create ~trace:ftrace d.fabric)
    (List.filter_map (function T.Scheduled e -> Some e | Crash_leader _ -> None) s.faults);
  List.iter (fun (_, drv, _) -> Harness.start_driver drv) tenants;
  (* Measured window, then settle: deadlines fire, restarted replicas
     catch up, commit indexes propagate. An audit settles every port,
     which would write its departure samples into the trace ahead of
     their place, so a traced run is audited at quiescence only. *)
  let audit when_ =
    List.iter (violate "netsim %s: %s" when_) (Netsim.Network.audit (Erpc.Fabric.net d.fabric))
  in
  Sim.Engine.run_until engine (Sim.Time.add t0 s.horizon_ns);
  if not s.traced then audit "at horizon";
  Sim.Engine.run_until engine (Sim.Time.add t0 (s.horizon_ns + s.settle_ns));
  Array.iter Service.Replica.stop replicas;
  Sim.Engine.run engine;
  audit "at quiescence";
  let history = List.rev !history in
  check_invariants ~fabric:d.fabric ~map ~replicas ~history ~applied (violate "%s");
  let reports =
    List.map
      (fun ((t : T.tenant), drv, timeline) ->
        let whole = Harness.driver_tally drv and steady = Harness.driver_steady drv in
        (* issued = 0 just means the horizon was too short for this
           tenant's offered rate (smoke runs); issued > 0 with zero
           successes is a real outage. *)
        if whole.issued > 0 && whole.ok = 0 then
          violate "tenant %s: issued %d operations, none succeeded" t.tname whole.issued;
        {
          tname = t.tname;
          service = (match t.service with Kv _ -> "kv" | Echo _ -> "echo");
          sources = t.sources;
          offered_rps = T.offered_rps t;
          whole;
          steady = (if s.horizon_ns < warmup_ns then None else steady);
          steady_tagged = (Option.get steady).tagged;
          timeline;
        })
      tenants
  in
  let kv_sum f =
    List.fold_left (fun a t -> if t.service = "kv" then a + f t.whole else a) 0 reports
  in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 replicas in
  let issued = kv_sum (fun (w : Harness.tally) -> w.issued) in
  let acked = kv_sum (fun w -> w.ok) and failed = kv_sum (fun w -> w.failed) in
  note "quiesce issued=%d acked=%d failed=%d drops=%d dedup=%d restarts=%d" issued acked
    failed
    (sum Service.Replica.raft_drops)
    (sum Service.Replica.dedup_hits)
    (sum Service.Replica.restarts);
  (* Tail attribution over client-host RPCs (KV front-end + echo; the
     replicas' internal Raft traffic is excluded so the attribution
     reflects what tenants experience). *)
  let breakdowns =
    List.filter
      (fun (b : Obs.Anatomy.breakdown) -> Array.mem b.host l.client_hosts)
      (Obs.Anatomy.analyze ~wire_ns:(Exp_anatomy.predictor cluster) (Obs.Trace.events trace))
  in
  {
    scenario = s.sname;
    seed;
    horizon_ns = s.horizon_ns;
    tenants = reports;
    issued;
    acked;
    failed;
    raft_drops = sum Service.Replica.raft_drops;
    dedup_hits = sum Service.Replica.dedup_hits;
    restarts = sum Service.Replica.restarts;
    commit = Harness.merged (Array.map Service.Replica.commit_latencies replicas);
    attribution = Obs.Anatomy.attribute breakdowns;
    analyzed_rpcs = List.length breakdowns;
    issued_rpcs =
      Array.fold_left
        (fun acc h -> acc + (Erpc.Rpc.stats d.rpcs.(h).(0)).Erpc.Rpc_stats.issued)
        0 l.client_hosts;
    breakdowns;
    digest = Obs.Trace.digest trace;
    events = Sim.Engine.events_processed engine;
    violations = List.rev !violations;
    trace = Faults.Trace.to_string ftrace;
    history;
  }
