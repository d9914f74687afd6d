type scenario = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

let scenario_name = function
  | Leader_crash -> "leader-crash"
  | Tor_partition -> "tor-partition"
  | Rolling_restart -> "rolling-restart"
  | Hot_shard -> "hot-shard"

type run_result = {
  seed : int64;
  scenario : scenario;
  issued : int;
  acked : int;
  failed : int;
  retries : int;
  redirects : int;
  raft_drops : int;
  dedup_hits : int;
  restarts : int;
  p50_us : float;
  p99_us : float;
  tagged : int array;
  untagged_p999_us : float;
  commit_p50_us : float;
  commit_p99_us : float;
  gap_windows : int;
  longest_gap_ms : float;
  violations : string list;
  trace : string;
  timeline : Obs.Json.t;
  events : int;
}

(* Layout: cx4 two-tier, 2 hosts per ToR. Replica hosts 0-5 span ToRs
   0-2, so a ToR partition cuts real quorums; clients live on ToR 3. *)
let nodes = 10
let replica_hosts = [| 0; 1; 2; 3; 4; 5 |]
let client_hosts = [| 6; 7 |]
let shards = 4
let replication = 3

let horizon_ns = 300_000_000
let window_ns = 10_000_000
let op_gap_ns = 500_000
let deadline_ns = 40_000_000
let settle_ns = 80_000_000
let num_keys = 400

let ms n = n * 1_000_000

type ctx = {
  d : Harness.deployment;
  engine : Sim.Engine.t;
  map : Service.Shard_map.t;
  replicas : Service.Replica.t array;  (** indexed like [replica_hosts] *)
  ftrace : Faults.Trace.t;
  injector : Faults.Injector.t;
}

let leader_host ctx ~shard =
  match
    Array.find_opt (fun r -> Service.Replica.is_leader r ~shard) ctx.replicas
  with
  | Some r -> Service.Replica.host r
  | None -> (Service.Shard_map.group ctx.map ~shard).(0)

(* Crash whoever leads [shard] when the event fires — the dynamic fault a
   static schedule can't express. *)
let crash_leader ctx ~shard ~down_ns =
  let h = leader_host ctx ~shard in
  Faults.Trace.record ctx.ftrace
    ~at_ns:(Sim.Engine.now ctx.engine)
    (Printf.sprintf "crash-leader shard=%d host=%d down_ns=%d" shard h down_ns);
  Erpc.Fabric.crash_host ctx.d.fabric h ~down_ns

let install_faults ctx ~scenario ~seed =
  let shard0 = Int64.to_int (Int64.rem seed (Int64.of_int shards)) in
  match scenario with
  | Leader_crash ->
      (* One slow crash (detected by the management plane) and one fast
         restart (invisible to it: peers must recover via bounded
         retransmission), on different groups, both mid-load. *)
      Sim.Engine.schedule_after ctx.engine (ms 60) (fun () ->
          crash_leader ctx ~shard:shard0 ~down_ns:(ms 30));
      Sim.Engine.schedule_after ctx.engine (ms 150) (fun () ->
          crash_leader ctx ~shard:((shard0 + 1) mod shards) ~down_ns:(ms 4))
  | Tor_partition ->
      Faults.Injector.install ctx.injector
        [
          {
            Faults.Schedule.at_ns = ms 60;
            fault = Faults.Schedule.Partition { tor_a = 0; tor_b = 1; heal_ns = ms 50 };
          };
          {
            Faults.Schedule.at_ns = ms 150;
            fault = Faults.Schedule.Partition { tor_a = 1; tor_b = 2; heal_ns = ms 40 };
          };
        ]
  | Rolling_restart ->
      Faults.Injector.install ctx.injector
        (List.init
           (Array.length replica_hosts)
           (fun i ->
             {
               Faults.Schedule.at_ns = ms (40 + (25 * i));
               fault =
                 Faults.Schedule.Crash
                   {
                     host = replica_hosts.(i);
                     down_ns = (if i mod 2 = 0 then ms 8 else ms 4);
                   };
             }))
  | Hot_shard ->
      (* Load is Zipfian (set up by the caller); crash the group that owns
         the hottest key while it soaks the skew. *)
      let hot_shard =
        Service.Shard_map.shard_of_key ctx.map ~key:(Workload.Keygen.encode 0)
      in
      Sim.Engine.schedule_after ctx.engine (ms 70) (fun () ->
          crash_leader ctx ~shard:hot_shard ~down_ns:(ms 30))

(* {2 Invariant checks} *)

let committed_cmds r ~shard =
  let core = Service.Replica.raft r ~shard in
  let log = Raft.Core.log core in
  let ci = Raft.Core.commit_index core in
  List.init ci (fun i ->
      let e = Raft.Log.get log (i + 1) in
      (e.Raft.Log.term, e.Raft.Log.cmd))

let check_invariants ctx ~acked ~applied violations =
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Array.iter
    (fun h ->
      if Erpc.Fabric.host_dead ctx.d.fabric h then
        violate "host %d still dead after settle" h)
    replica_hosts;
  (* Per group: logs converged, fully applied, stores = dedup replay. *)
  for shard = 0 to shards - 1 do
    let group = Service.Shard_map.group ctx.map ~shard in
    let members =
      Array.map
        (fun h ->
          match
            Array.find_opt (fun r -> Service.Replica.host r = h) ctx.replicas
          with
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
      (fun (s, client_id, seq) ->
        if s = shard && not (Hashtbl.mem seen (client_id, seq)) then
          violate "shard %d: acked write c%d/%d missing from committed log" shard
            client_id seq)
      acked
  done;
  (* No write applied twice: the observer saw every (client, seq) mutate
     a given incarnation's store at most once. *)
  let dups =
    Hashtbl.fold (fun k n acc -> if n > 1 then (k, n) :: acc else acc) applied []
  in
  List.iter
    (fun ((host, inc, shard, client_id, seq), n) ->
      violate "double apply: host=%d inc=%d shard=%d c%d/%d applied %d times" host
        inc shard client_id seq n)
    (List.sort compare dups)

(* {2 One run} *)

let run ~seed ~fault_scenario () =
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let d = Harness.deploy ~seed cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  let map = Service.Shard_map.create ~shards ~replication ~replica_hosts in
  (* Bootstrap: every group must elect before the measured window. *)
  let replicas, elected = Harness.start_replicas d ~map in
  let ftrace = Faults.Trace.create () in
  let injector = Faults.Injector.create ~trace:ftrace d.fabric in
  let ctx = { d; engine; map; replicas; ftrace; injector } in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if not elected then violate "bootstrap: not every shard elected a leader";
  (* Apply observer: counts effective store mutations per incarnation. *)
  let applied = Hashtbl.create 4096 in
  Array.iter
    (fun r ->
      let host = Service.Replica.host r in
      Service.Replica.set_on_apply r (fun ~shard ~incarnation ~client_id ~seq ->
          let k = (host, incarnation, shard, client_id, seq) in
          Hashtbl.replace applied k
            (1 + Option.value ~default:0 (Hashtbl.find_opt applied k))))
    replicas;
  let t0 = Sim.Engine.now engine in
  Faults.Trace.record ftrace ~at_ns:t0
    (Printf.sprintf "kv-chaos seed=%Ld scenario=%s" seed
       (match fault_scenario with Some s -> scenario_name s | None -> "none"));
  let timeline = Obs.Timeline.create ~window_ns ~horizon_ns in
  let clients =
    Array.mapi
      (fun i host ->
        Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(host).(0) ~map
          ~client_id:(i + 1) ())
      client_hosts
  in
  let keygens =
    Array.map
      (fun _ ->
        let g =
          match fault_scenario with
          | Some Hot_shard -> Workload.Keygen.zipf ~n:num_keys ~theta:0.99
          | _ -> Workload.Keygen.uniform ~n:num_keys
        in
        (g, Sim.Rng.split (Sim.Engine.rng engine)))
      client_hosts
  in
  (match fault_scenario with
  | Some s -> install_faults ctx ~scenario:s ~seed
  | None -> ());
  (* Each client issues one operation every [op_gap_ns]; every fifth is a
     GET (kind 0), the rest PUTs (kind 1). *)
  let acked = ref [] in
  let next_op = Array.make (Array.length clients) 0 in
  let send (op : Obs.Op.t) k =
    let ci = op.source in
    let client = clients.(ci) and client_id = ci + 1 and j = next_op.(ci) in
    next_op.(ci) <- j + 1;
    let keygen, krng = keygens.(ci) in
    let key = Workload.Keygen.encode (Workload.Keygen.next keygen krng) in
    let finish result tag =
      k result;
      Faults.Trace.record ftrace ~at_ns:(Sim.Engine.now engine) tag
    in
    let outcome = function
      | Error `Deadline -> "deadline"
      | Error (`Failed e) -> "err:" ^ e
      | Ok s -> s
    in
    (* Continuations fire on later engine events, never within the call,
       so the seq cell is filled before any use. *)
    let seq = ref 0 in
    if j mod 5 = 4 then
      seq :=
        Service.Kv_client.get ~record:op client ~key ~deadline_ns ~cont:(fun r ->
            finish (Harness.of_get r)
              (Printf.sprintf "get c%d/%d %s" client_id !seq
                 (outcome (Result.map (function Some _ -> "hit" | None -> "miss") r))))
    else begin
      op.kind <- 1;
      let shard = Service.Shard_map.shard_of_key map ~key in
      let value = Printf.sprintf "c%d-%06d" client_id j in
      seq :=
        Service.Kv_client.put ~record:op client ~key ~value ~deadline_ns ~cont:(fun r ->
            if Result.is_ok r then acked := (shard, client_id, !seq) :: !acked;
            finish (Harness.ok_or_failed r)
              (Printf.sprintf "put c%d/%d %s" client_id !seq
                 (outcome (Result.map (fun () -> "ok") r))))
    end
  in
  let ops_per_client = horizon_ns / op_gap_ns in
  let every = Harness.Every { gap_ns = op_gap_ns; count = ops_per_client } in
  (* A slot per operation: none is ever shed. *)
  let drv =
    Harness.driver ~engine ~timeline ~slots:(ops_per_client * Array.length clients)
      ~latencies:[| Stats.Hist.create (); Stats.Hist.create () |]
      (Open (Array.map (fun _ -> every) clients))
      send
  in
  Harness.start_driver drv;
  (* Measured window, then settle: deadlines fire, restarted replicas
     catch up, commit indexes propagate. *)
  let audit_net when_ =
    List.iter (violate "netsim %s: %s" when_) (Netsim.Network.audit (Erpc.Fabric.net d.fabric))
  in
  Sim.Engine.run_until engine (Sim.Time.add t0 horizon_ns);
  audit_net "at horizon";
  Sim.Engine.run_until engine (Sim.Time.add t0 (horizon_ns + settle_ns));
  Array.iter Service.Replica.stop replicas;
  Sim.Engine.run engine;
  audit_net "at quiescence";
  check_invariants ctx ~acked:!acked ~applied violations;
  let tally = Harness.driver_tally drv in
  let acked_n = tally.ok in
  if acked_n = 0 then violate "no operation ever succeeded";
  let sum f = Array.fold_left (fun a r -> a + f r) 0 replicas in
  let lat = Harness.merged tally.lat in
  let commit = Harness.merged (Array.map Service.Replica.commit_latencies replicas) in
  Faults.Trace.record ftrace
    ~at_ns:(Sim.Engine.now engine)
    (Printf.sprintf "quiesce issued=%d acked=%d failed=%d drops=%d dedup=%d restarts=%d"
       tally.issued acked_n tally.failed
       (sum Service.Replica.raft_drops)
       (sum Service.Replica.dedup_hits)
       (sum Service.Replica.restarts));
  {
    seed;
    scenario = (match fault_scenario with Some s -> s | None -> Leader_crash);
    issued = tally.issued;
    acked = acked_n;
    failed = tally.failed;
    retries = tally.backoffs;
    redirects = tally.redirects;
    raft_drops = sum Service.Replica.raft_drops;
    dedup_hits = sum Service.Replica.dedup_hits;
    restarts = sum Service.Replica.restarts;
    p50_us = Harness.us_at lat 50.;
    p99_us = Harness.us_at lat 99.;
    tagged = tally.tagged;
    untagged_p999_us = Harness.us_at tally.untagged 99.9;
    commit_p50_us = Harness.us_at commit 50.;
    commit_p99_us = Harness.us_at commit 99.;
    gap_windows = Obs.Timeline.gaps timeline;
    longest_gap_ms = float_of_int (Obs.Timeline.longest_gap_ns timeline) /. 1e6;
    violations = List.rev !violations;
    trace = Faults.Trace.to_string ftrace;
    timeline = Obs.Timeline.to_json timeline;
    events = Sim.Engine.events_processed engine;
  }

let run_one ?(scenario = Leader_crash) ~seed () =
  run ~seed ~fault_scenario:(Some scenario) ()

let scenarios = [| Leader_crash; Tor_partition; Rolling_restart; Hot_shard |]

(* Seeds are independent (each run builds its own cluster and engine),
   so [~jobs] fans them across domains; Par_sweep returns results in
   seed order, keeping the report identical to a sequential run. *)
let run_suite ?(seed = 42L) ?(seeds = 20) ?jobs () =
  Par_sweep.list ?jobs seeds (fun i ->
      let seed = Int64.add (Int64.sub seed 42L) (Int64.of_int (40_000 + (104_729 * i))) in
      run_one ~scenario:scenarios.(i mod Array.length scenarios) ~seed ())

let pp_run fmt r =
  Format.fprintf fmt
    "seed=%Ld %-15s issued=%d acked=%d failed=%d retries=%d redirects=%d drops=%d \
     dedup=%d restarts=%d p50=%.1fus p99=%.1fus tags=%s untagged-p99.9=%.1fus \
     gaps=%d(max %.0fms) %s"
    r.seed (scenario_name r.scenario) r.issued r.acked r.failed r.retries r.redirects
    r.raft_drops r.dedup_hits r.restarts r.p50_us r.p99_us
    (String.concat "/" (Array.to_list (Array.map string_of_int r.tagged)))
    r.untagged_p999_us r.gap_windows
    r.longest_gap_ms
    (if r.violations = [] then "PASS"
     else "VIOLATIONS: " ^ String.concat "; " r.violations)

let run_to_json r =
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Int (Int64.to_int r.seed));
      ("scenario", Obs.Json.Str (scenario_name r.scenario));
      ("issued", Obs.Json.Int r.issued);
      ("acked", Obs.Json.Int r.acked);
      ("failed", Obs.Json.Int r.failed);
      ("retries", Obs.Json.Int r.retries);
      ("redirects", Obs.Json.Int r.redirects);
      ("raft_drops", Obs.Json.Int r.raft_drops);
      ("dedup_hits", Obs.Json.Int r.dedup_hits);
      ("restarts", Obs.Json.Int r.restarts);
      ("p50_us", Obs.Json.Float r.p50_us);
      ("p99_us", Obs.Json.Float r.p99_us);
      ("tags", Harness.tags_json r.tagged);
      ("untagged_p999_us", Obs.Json.Float r.untagged_p999_us);
      ("commit_p50_us", Obs.Json.Float r.commit_p50_us);
      ("commit_p99_us", Obs.Json.Float r.commit_p99_us);
      ("gap_windows", Obs.Json.Int r.gap_windows);
      ("longest_gap_ms", Obs.Json.Float r.longest_gap_ms);
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
      ("timeline", r.timeline);
      ("trace_digest", Obs.Json.Str (Digest.to_hex (Digest.string r.trace)));
    ]

let baseline_json ?(seed = 42L) () =
  let r = run ~seed ~fault_scenario:None () in
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Int (Int64.to_int seed));
      ("commit_p50_us", Obs.Json.Float r.commit_p50_us);
      ("commit_p99_us", Obs.Json.Float r.commit_p99_us);
      ("client_p50_us", Obs.Json.Float r.p50_us);
      ("client_p99_us", Obs.Json.Float r.p99_us);
      ("acked", Obs.Json.Int r.acked);
      ("failed", Obs.Json.Int r.failed);
      ("gap_windows", Obs.Json.Int r.gap_windows);
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
      ("timeline", r.timeline);
    ]
