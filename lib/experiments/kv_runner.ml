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
  retransmits : int;
  session_resets : int;
  rx_corrupt : int;
  commit : Stats.Hist.t;
  traced : bool;
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

let trace_capacity = 1 lsl 18
let echo_req_type_base = 16

(* Every tenant's first operations wait on session handshakes to hosts
   they have not talked to yet; at seed 42 the last such wait falls 2 ms
   after the start of cluster-load at full scale and 7 ms after it at a
   quarter of it. Operations issued from here on are the steady state. *)
let warmup_ns = 10_000_000

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
  for shard = 0 to T.kv_shards - 1 do
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

(* An echo tenant's hook: round robin over [endpoints], each buffer pair
   reused once its request completes. A request whose response can hold it
   carries its op's id, which the echo must bring back; a second
   completion is a violation. *)
let echo_send ~req_type ~req_size ~resp_size endpoints add =
  let violate fmt = Printf.ksprintf add fmt in
  let stamped = resp_size >= req_size && req_size >= 4 in
  let free = ref [] and cursor = ref 0 in
  fun (op : Obs.Op.t) k ->
    let ((req, resp) as bufs) =
      match !free with
      | b :: rest ->
          free := rest;
          b
      | [] -> (Erpc.Msgbuf.alloc ~max_size:req_size, Erpc.Msgbuf.alloc ~max_size:resp_size)
    in
    let rpc, sess = endpoints.(!cursor) in
    cursor := (!cursor + 1) mod Array.length endpoints;
    let id = op.id and completed = ref false in
    if stamped then Erpc.Msgbuf.set_u32 req ~off:0 id;
    Erpc.Rpc.enqueue_request rpc sess ~req_type ~req ~resp ~cont:(fun r ->
        if !completed then violate "echo op %d completed twice" id
        else begin
          completed := true;
          if stamped && r = Ok () && Erpc.Msgbuf.get_u32 resp ~off:0 <> id then
            violate "echo op %d: response carries id %d" id (Erpc.Msgbuf.get_u32 resp ~off:0);
          free := bufs :: !free;
          k (Harness.ok_or_failed r)
        end)

(* {2 Linearizability}

   Each key is a register that starts absent, and keys are independent,
   so each key's operations are checked on their own (Wing & Gong's
   search with Lowe's memo of visited (linearized set, state) pairs, as in
   Knossos and Porcupine). A PUT takes effect at one instant between its
   invoke and its completion; a failed PUT may have taken effect at any
   instant after its invoke, or never, so it stays open to the end of
   time. A GET reads the register (a miss reads it absent); a failed GET
   constrains nothing. *)

(* Whether [ops] has a linearization, else the op whose completion the
   longest partial linearization could not reach. *)
let linearize (ops : entry array) =
  let n = Array.length ops in
  let return_ns i =
    if ops.(i).kind = Put && ops.(i).result = Obs.Op.Failed then max_int else ops.(i).complete_ns
  in
  (* Entries [0, n) are invocations, [n, 2n) completions, in time order
     with invocations first on ties: ops that touch at one instant
     overlap. Positions [0, 2n) form a circular doubly linked list through
     the sentinel [2n]. *)
  let time e = if e < n then (ops.(e).invoke_ns, 0) else (return_ns (e - n), 1) in
  let entries = Array.init (2 * n) Fun.id in
  Array.stable_sort (fun a b -> compare (time a) (time b)) entries;
  let pos = Array.make (2 * n) 0 in
  Array.iteri (fun p e -> pos.(e) <- p) entries;
  let head = 2 * n in
  let next = Array.init ((2 * n) + 1) (fun p -> (p + 1) mod ((2 * n) + 1)) in
  let prev = Array.init ((2 * n) + 1) (fun p -> (p + (2 * n)) mod ((2 * n) + 1)) in
  let unlink p =
    next.(prev.(p)) <- next.(p);
    prev.(next.(p)) <- prev.(p)
  in
  let relink p =
    next.(prev.(p)) <- p;
    prev.(next.(p)) <- p
  in
  (* The state is the index of the PUT whose value the register holds, or
     -1 while it is absent. *)
  let step i state =
    match ops.(i).kind with
    | Put -> Some i
    | Get ->
        let holds = if state < 0 then None else ops.(state).value in
        if holds = ops.(i).value then Some state else None
  in
  let linearized = Bytes.make ((n + 7) / 8) '\000' in
  let flip i =
    Bytes.set linearized (i / 8)
      (Char.chr (Char.code (Bytes.get linearized (i / 8)) lxor (1 lsl (i mod 8))))
  in
  let seen = Hashtbl.create 64 in
  let stack = ref [] and depth = ref 0 and state = ref (-1) in
  let deepest = ref (-1) and stuck = ref 0 in
  let cur = ref next.(head) and outcome = ref None in
  while !outcome = None do
    if next.(head) = head then outcome := Some None
    else
      let p = !cur in
      let e = entries.(p) in
      if e < n then begin
        match step e !state with
        | Some s' ->
            flip e;
            let memo = (Bytes.to_string linearized, s') in
            if Hashtbl.mem seen memo then begin
              flip e;
              cur := next.(p)
            end
            else begin
              Hashtbl.add seen memo ();
              stack := (e, !state) :: !stack;
              incr depth;
              state := s';
              unlink p;
              unlink pos.(e + n);
              cur := next.(head)
            end
        | None -> cur := next.(p)
      end
      else begin
        if !depth > !deepest then begin
          deepest := !depth;
          stuck := e - n
        end;
        match !stack with
        | [] -> outcome := Some (Some ops.(!stuck))
        | (i, s) :: rest ->
            stack := rest;
            decr depth;
            flip i;
            state := s;
            relink pos.(i + n);
            relink pos.(i);
            cur := next.(pos.(i))
      end
  done;
  Option.get !outcome

let linearizability_violations history =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun e ->
      if not (e.kind = Get && e.result = Obs.Op.Failed) then
        Hashtbl.replace by_key e.key
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_key e.key)))
    history;
  Hashtbl.fold (fun key ops acc -> (key, ops) :: acc) by_key []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (key, ops) ->
         let ops = Array.of_list (List.rev ops) in
         if not (Array.exists (fun e -> e.kind = Get) ops) then None
         else
           Option.map
             (fun e ->
               Printf.sprintf
                 "not linearizable: key %s (%d ops); no order reaches the %s c%d/%d \
                  completing at %d ns"
                 key (Array.length ops)
                 (match (e.kind, e.value) with
                 | Get, Some v -> "GET reading " ^ v
                 | Get, None -> "GET missing"
                 | Put, _ -> "PUT")
                 e.client_id e.seq e.complete_ns)
             (linearize ops))

let run ~seed (s : T.scenario) =
  let l = s.layout in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun v -> violations := v :: !violations) fmt in
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx4 ~nodes:l.nodes ()) l.colocated
  in
  let config = Erpc.Config.of_cluster cluster in
  let trace =
    if s.traced then Obs.Trace.create ~capacity:trace_capacity () else Obs.Trace.disabled
  in
  let d = Harness.deploy ~seed ~config ~trace cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  (* Bootstrap: every shard elects before the measured window opens. A
     layout without replica hosts carries echo tenants only: no shard map,
     no replicas, no KV invariants. *)
  let map, replicas =
    if l.replica_hosts = [||] then (None, [||])
    else
      let replica_hosts = l.replica_hosts in
      let map = Service.Shard_map.create ~shards:T.kv_shards ~replication:3 ~replica_hosts in
      let replicas, elected = Harness.start_replicas d ~map in
      if not elected then violate "bootstrap: not every shard elected a leader";
      (Some map, replicas)
  in
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
  (* The fault trace: fault applications, leader crashes and one line per
     completed KV operation. *)
  let ftrace = Faults.Trace.create () in
  let note fmt =
    Printf.ksprintf (fun m -> Faults.Trace.record ftrace ~at_ns:(Sim.Engine.now engine) m) fmt
  in
  let history = ref [] in
  let t0 = ref 0 in
  let kv_send ti keygen mix deadline_ns =
    let map = Option.get map in
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
              (* One req_type per echo tenant, so each tenant gets its own
                 response size (a 64 kB transfer is acked with 32 B, not
                 echoed). Sessions from every client host to every other
                 echo server, taken round robin, so both source and
                 destination alternate. *)
              let req_type = echo_req_type_base + ti in
              Array.iter
                (fun h -> Harness.register_echo ~req_type ~resp_size d.nexuses.(h))
                l.echo_hosts;
              let endpoints =
                Array.of_list
                  (List.concat_map
                     (fun ch ->
                       let rpc = d.rpcs.(ch).(0) in
                       List.map
                         (fun eh ->
                           (rpc, Harness.connect d rpc ~remote_host:eh ~remote_rpc_id:0))
                         (List.filter (( <> ) ch) (Array.to_list l.echo_hosts)))
                     (Array.to_list l.client_hosts))
              in
              (echo_send ~req_type ~req_size ~resp_size endpoints (violate "%s"), 1)
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
      | None -> (Service.Shard_map.group (Option.get map) ~shard).(0)
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
  (* The protocol at quiescence: credits home, no RTO armed, and no
     request handled more often than requests were issued. *)
  Array.iter
    (Array.iter (fun rpc -> List.iter (violate "erpc: %s") (Erpc.Rpc.audit rpc)))
    d.rpcs;
  let stat = Harness.sum_stats d in
  let handled = stat (fun s -> s.handled) and rpcs_issued = stat (fun s -> s.issued) in
  if handled > rpcs_issued then
    violate "erpc: handlers ran %d times for %d issued requests (at-most-once broken)" handled
      rpcs_issued;
  let history = List.rev !history in
  Option.iter
    (fun map ->
      check_invariants ~fabric:d.fabric ~map ~replicas ~history ~applied (violate "%s"))
    map;
  List.iter (violate "%s") (linearizability_violations history);
  let reports =
    List.map
      (fun ((t : T.tenant), drv, timeline) ->
        let whole = Harness.driver_tally drv and steady = Harness.driver_steady drv in
        (* issued = 0 just means the horizon was too short for this
           tenant's offered rate (smoke runs); issued > 0 with zero
           successes is a real outage. *)
        if whole.issued > 0 && whole.ok = 0 then
          violate "tenant %s: issued %d operations, none succeeded" t.tname whole.issued;
        if whole.ok + whole.failed <> whole.issued then
          violate "tenant %s: issued %d operations, %d completed" t.tname whole.issued
            (whole.ok + whole.failed);
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
  let issued_rpcs =
    Array.fold_left
      (fun acc h -> acc + (Erpc.Rpc.stats d.rpcs.(h).(0)).Erpc.Rpc_stats.issued)
      0 l.client_hosts
  in
  (* A traced run attributes its tail: client RPCs with none analyzed
     means the trace lost them or the analysis broke. *)
  if s.traced && issued_rpcs > 0 && breakdowns = [] then
    violate "obs: traced run issued %d client RPCs, analyzed none" issued_rpcs;
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
    retransmits = stat (fun s -> s.retransmits);
    session_resets = stat (fun s -> s.session_resets);
    rx_corrupt = stat (fun s -> s.rx_corrupt);
    commit = Harness.merged (Array.map Service.Replica.commit_latencies replicas);
    traced = s.traced;
    attribution = Obs.Anatomy.attribute breakdowns;
    analyzed_rpcs = List.length breakdowns;
    issued_rpcs;
    breakdowns;
    digest = Obs.Trace.digest trace;
    events = Sim.Engine.events_processed engine;
    violations = List.rev !violations;
    trace = Faults.Trace.to_string ftrace;
    history;
  }

(* Runs are independent (each builds its own cluster and engine), so
   [~jobs] fans them across domains; Par_sweep keeps their order, so the
   results are identical for any [jobs]. *)
let sweep ~jobs runs =
  let runs = Array.of_list runs in
  Par_sweep.list ~jobs (Array.length runs) (fun i ->
      let seed, s = runs.(i) in
      run ~seed s)

(* {2 Report} *)

let coverage r =
  if r.issued_rpcs = 0 then 0. else float_of_int r.analyzed_rpcs /. float_of_int r.issued_rpcs

let kv_tenants r = List.filter (fun t -> t.service = "kv") r.tenants

(* Availability over the KV tenants: windows without a success, summed,
   and the longest run of them in any one tenant. *)
let gap_windows r = List.fold_left (fun a t -> a + Obs.Timeline.gaps t.timeline) 0 (kv_tenants r)

let longest_gap_ms r =
  float_of_int
    (List.fold_left (fun a t -> max a (Obs.Timeline.longest_gap_ns t.timeline)) 0 (kv_tenants r))
  /. 1e6

let warmup_tagged t = Array.map2 ( - ) t.whole.tagged t.steady_tagged
let tags_text a = String.concat "/" (Array.to_list (Array.map string_of_int a))

let pp fmt r =
  Format.fprintf fmt
    "seed=%Ld %s: issued=%d acked=%d failed=%d drops=%d dedup=%d restarts=%d commit \
     p50=%.1fus p99=%.1fus gaps=%d(max %.0fms) retx=%d resets=%d corrupt=%d; %d events"
    r.seed r.scenario r.issued r.acked r.failed r.raft_drops r.dedup_hits r.restarts
    (Harness.us_at r.commit 50.) (Harness.us_at r.commit 99.) (gap_windows r)
    (longest_gap_ms r) r.retransmits r.session_resets r.rx_corrupt r.events;
  if r.traced then
    Format.fprintf fmt ", %d RPCs analyzed of %d issued (coverage %.3f)" r.analyzed_rpcs
      r.issued_rpcs (coverage r);
  Format.fprintf fmt " %s@." (if r.violations = [] then "PASS" else "FAIL");
  List.iter
    (fun t ->
      let line (s : Harness.tally) =
        let lat = Harness.merged s.lat in
        Format.sprintf
          "issued=%-6d ok=%-6d failed=%-4d shed=%-4d p50=%.1fus p99=%.1fus p99.9=%.1fus"
          s.issued s.ok s.failed s.shed (Harness.us_at lat 50.) (Harness.us_at lat 99.)
          (Harness.us_at lat 99.9)
      in
      Format.fprintf fmt "  %-14s %-5s %3d src %8.0f rps  %s@." t.tname t.service t.sources
        t.offered_rps (line t.whole);
      Option.iter (fun s -> Format.fprintf fmt "  %31s steady %s@." "" (line s)) t.steady;
      if t.service = "kv" then begin
        let get = t.whole.lat.(0) and put = t.whole.lat.(1) in
        Format.fprintf fmt
          "  %31s GET p50=%.1fus p99=%.1fus (%d misses), PUT p50=%.1fus p99=%.1fus; \
           retries=%d redirects=%d@."
          "" (Harness.us_at get 50.) (Harness.us_at get 99.) t.whole.misses
          (Harness.us_at put 50.) (Harness.us_at put 99.) t.whole.backoffs t.whole.redirects;
        Format.fprintf fmt
          "  %31s ops tagged %s: %s in the warmup, %s after; untagged p99.9=%.1fus@." ""
          (String.concat "/" (Array.to_list Obs.Op.phase_names))
          (tags_text (warmup_tagged t)) (tags_text t.steady_tagged)
          (Harness.us_at t.whole.untagged 99.9)
      end)
    r.tenants;
  Option.iter
    (fun (a : Obs.Anatomy.attribution) ->
      Format.fprintf fmt
        "  tail: p50=%.1fus (%s) p99=%.1fus (%s) p99.9=%.1fus over %d samples@."
        (float_of_int a.p50_total_ns /. 1e3)
        a.p50_dominant
        (float_of_int a.p99_total_ns /. 1e3)
        a.p99_dominant
        (float_of_int a.p999_total_ns /. 1e3)
        a.samples)
    r.attribution;
  if r.violations <> [] then
    Format.fprintf fmt "  VIOLATIONS: %s@." (String.concat "; " r.violations)

let tally_fields (s : Harness.tally) =
  let lat = Harness.merged s.lat in
  [
    ("issued", Obs.Json.Int s.issued);
    ("ok", Obs.Json.Int s.ok);
    ("failed", Obs.Json.Int s.failed);
    ("shed", Obs.Json.Int s.shed);
    ("mean_us", Obs.Json.Float (Stats.Hist.mean lat /. 1e3));
    ("p50_us", Obs.Json.Float (Harness.us_at lat 50.));
    ("p99_us", Obs.Json.Float (Harness.us_at lat 99.));
    ("p999_us", Obs.Json.Float (Harness.us_at lat 99.9));
    ("retries", Obs.Json.Int s.backoffs);
    ("redirects", Obs.Json.Int s.redirects);
    ("untagged_p999_us", Obs.Json.Float (Harness.us_at s.untagged 99.9));
  ]

let tenant_json t =
  let kv =
    if t.service <> "kv" then []
    else
      let get = t.whole.lat.(0) and put = t.whole.lat.(1) in
      [
        ("get_p50_us", Obs.Json.Float (Harness.us_at get 50.));
        ("get_p99_us", Obs.Json.Float (Harness.us_at get 99.));
        ("put_p50_us", Obs.Json.Float (Harness.us_at put 50.));
        ("put_p99_us", Obs.Json.Float (Harness.us_at put 99.));
        ("get_hits", Obs.Json.Int (Stats.Hist.count get - t.whole.misses));
        ("get_misses", Obs.Json.Int t.whole.misses);
      ]
  in
  Obs.Json.Obj
    ([
       ("tenant", Obs.Json.Str t.tname);
       ("service", Obs.Json.Str t.service);
       ("sources", Obs.Json.Int t.sources);
       ("offered_rps", Obs.Json.Float t.offered_rps);
     ]
    @ tally_fields t.whole
    @ [
        ( "steady",
          match t.steady with Some s -> Obs.Json.Obj (tally_fields s) | None -> Obs.Json.Null );
        ( "tags",
          Obs.Json.Obj
            [
              ("whole", Harness.tags_json t.whole.tagged);
              ("warmup", Harness.tags_json (warmup_tagged t));
              ("steady", Harness.tags_json t.steady_tagged);
            ] );
      ]
    @ kv
    @ [ ("timeline", Obs.Timeline.to_json t.timeline) ])

let to_json r =
  let if_traced v = if r.traced then v else Obs.Json.Null in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str r.scenario);
      ("seed", Obs.Json.Int (Int64.to_int r.seed));
      ("horizon_ns", Obs.Json.Int r.horizon_ns);
      ("issued", Obs.Json.Int r.issued);
      ("acked", Obs.Json.Int r.acked);
      ("failed", Obs.Json.Int r.failed);
      ("raft_drops", Obs.Json.Int r.raft_drops);
      ("dedup_hits", Obs.Json.Int r.dedup_hits);
      ("restarts", Obs.Json.Int r.restarts);
      ("retransmits", Obs.Json.Int r.retransmits);
      ("session_resets", Obs.Json.Int r.session_resets);
      ("rx_corrupt", Obs.Json.Int r.rx_corrupt);
      ("commit_p50_us", Obs.Json.Float (Harness.us_at r.commit 50.));
      ("commit_p99_us", Obs.Json.Float (Harness.us_at r.commit 99.));
      ("gap_windows", Obs.Json.Int (gap_windows r));
      ("longest_gap_ms", Obs.Json.Float (longest_gap_ms r));
      ("trace_digest", Obs.Json.Str (Digest.to_hex (Digest.string r.trace)));
      ("digest", if_traced (Obs.Json.Str r.digest));
      ("events", Obs.Json.Int r.events);
      ("analyzed_rpcs", if_traced (Obs.Json.Int r.analyzed_rpcs));
      ("issued_rpcs", Obs.Json.Int r.issued_rpcs);
      ("coverage", if_traced (Obs.Json.Float (coverage r)));
      ("tenants", Obs.Json.Arr (List.map tenant_json r.tenants));
      ( "attribution",
        match r.attribution with
        | Some a -> Obs.Anatomy.attribution_to_json a
        | None -> Obs.Json.Null );
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
    ]
