type tenant_report = {
  tname : string;
  service : string;
  sources : int;
  offered_rps : float;
  whole : Harness.tally;
  steady : Harness.tally option;
  steady_tagged : int array;
  timeline : Obs.Json.t;
}

type result = {
  scenario : string;
  seed : int64;
  horizon_ns : int;
  tenants : tenant_report list;
  attribution : Obs.Anatomy.attribution option;
  analyzed_rpcs : int;
  issued_rpcs : int;
  digest : string;
  events : int;
  violations : string list;
  breakdowns : Obs.Anatomy.breakdown list;
}

(* Layout: CX4 two-tier, 2 hosts per ToR. KV replicas span ToRs 0-2 (so
   shard quorums cross racks), echo servers fill ToR 3, clients ToRs 4-5 —
   every request crosses the spine, like a real multi-rack service. *)
let nodes = 12
let replica_hosts = [| 0; 1; 2; 3; 4; 5 |]
let echo_hosts = [| 6; 7 |]
let client_hosts = [| 8; 9; 10; 11 |]
let shards = 4
let replication = 3

let window_ns = 5_000_000
let kv_deadline_ns = 20_000_000
let settle_ns = 60_000_000

(* Every tenant's first operations wait on session handshakes to hosts
   they have not talked to yet; at seed 42 the last such wait falls 2 ms
   after the start at full scale and 7 ms after it at a quarter of it.
   Operations issued from here on are the steady state. *)
let warmup_ns = 10_000_000
let echo_req_type_base = 16

let run ?(seed = 42L) ?(trace_capacity = 1 lsl 18)
    (scenario : Workload.Traffic_spec.scenario) =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* "local-mesh" models a microservice mesh: clients 8 and 9 share a
     machine with the echo servers, so their echo sessions split between
     the shared-memory rings (to the co-resident server) and the wire (to
     the other one), while clients 10-11 and all KV traffic stay fully
     remote. *)
  let local_mesh = scenario.Workload.Traffic_spec.sname = "local-mesh" in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let cluster =
    if local_mesh then Transport.Cluster.colocate cluster [ [ 6; 8 ]; [ 7; 9 ] ]
    else cluster
  in
  let config =
    let base = Erpc.Config.of_cluster cluster in
    if local_mesh then { base with Erpc.Config.shm_enabled = true } else base
  in
  let trace = Obs.Trace.create ~capacity:trace_capacity () in
  let d = Harness.deploy ~seed ~config ~trace cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  (* Replicated-KV service on hosts 0-5, exactly the kv-chaos deployment. *)
  let map = Service.Shard_map.create ~shards ~replication ~replica_hosts in
  (* Bootstrap: every shard elects before the measured window opens. *)
  let replicas, elected = Harness.start_replicas d ~map in
  if not elected then violate "bootstrap: not every shard elected a leader";
  (* Echo service: one req_type per echo tenant, so each tenant gets its
     own response size (a 64 kB transfer is acked with 32 B, not echoed). *)
  List.iteri
    (fun ti (t : Workload.Traffic_spec.tenant) ->
      match t.service with
      | Workload.Traffic_spec.Echo { resp_size; _ } ->
          Array.iter
            (fun h ->
              Harness.register_echo ~req_type:(echo_req_type_base + ti) ~resp_size
                d.nexuses.(h))
            echo_hosts
      | Workload.Traffic_spec.Kv _ -> ())
    scenario.tenants;
  (* Instantiate tenants. Creation order (tenant list order, then source
     index) fixes every rng split, so runs are reproducible. Each tenant is
     one open-loop driver with one source per population member; its
     arrival instants and phase windows are anchored at the common start. *)
  let t0 = ref 0 in
  let tenants =
    List.mapi
      (fun ti (t : Workload.Traffic_spec.tenant) ->
        let send, kv, kinds =
          match t.service with
          | Workload.Traffic_spec.Kv { get_pct } ->
              let pool =
                Service.Client_pool.create ~fabric:d.fabric ~map
                  ~rpcs:(Array.map (fun h -> d.rpcs.(h).(0)) client_hosts)
                  ~base_client_id:(1 + (ti * 64))
                  ~clients_per_rpc:1 ()
              in
              let krng = Sim.Rng.split (Sim.Engine.rng engine) in
              (* GETs are kind 0, PUTs kind 1. *)
              let send (op : Obs.Op.t) k =
                let key =
                  Workload.Keygen.encode
                    (Workload.Keygen.next_at t.keygen krng ~now_ns:(op.issued_ns - !t0))
                in
                let client = Service.Client_pool.next_client pool in
                let deadline_ns = kv_deadline_ns in
                if Sim.Rng.int krng 100 < get_pct then
                  ignore
                    (Service.Kv_client.get ~record:op client ~key ~deadline_ns ~cont:(fun r ->
                         k (Harness.of_get r)))
                else begin
                  op.kind <- 1;
                  let value = Printf.sprintf "t%d-%08d" ti (op.id + 1) in
                  ignore
                    (Service.Kv_client.put ~record:op client ~key ~value ~deadline_ns
                       ~cont:(fun r -> k (Harness.ok_or_failed r)))
                end
              in
              (send, true, 2)
          | Workload.Traffic_spec.Echo { req_size; resp_size } ->
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
                         echo_hosts)
                     (Array.to_list client_hosts))
              in
              ( Harness.erpc_send
                  ~payload:(Harness.Echo { req_size; resp_size })
                  ~req_type:(echo_req_type_base + ti) endpoints,
                false,
                1 )
        in
        let timeline = Obs.Timeline.create ~window_ns ~horizon_ns:scenario.horizon_ns in
        let drv =
          Harness.driver ~engine ~timeline ~warmup_ns ~slots:t.max_outstanding
            ~latencies:(Array.init kinds (fun _ -> Stats.Hist.create ()))
            (Open
               (Array.make t.sources
                  (Harness.Process { spec = t.arrival; until_ns = scenario.horizon_ns })))
            send
        in
        (t, drv, kv, timeline))
      scenario.tenants
  in
  t0 := Sim.Engine.now engine;
  List.iter (fun (_, drv, _, _) -> Harness.start_driver drv) tenants;
  let t0 = !t0 in
  Sim.Engine.run_until engine (Sim.Time.add t0 scenario.horizon_ns);
  Sim.Engine.run_until engine (Sim.Time.add t0 (scenario.horizon_ns + settle_ns));
  Array.iter Service.Replica.stop replicas;
  Sim.Engine.run engine;
  List.iter (violate "netsim: %s") (Netsim.Network.audit (Erpc.Fabric.net d.fabric));
  (* Tail attribution over client-host RPCs (KV front-end + echo; the
     replicas' internal Raft traffic originates below [client_hosts] and is
     excluded so the attribution reflects what tenants experience). *)
  let breakdowns =
    List.filter
      (fun (b : Obs.Anatomy.breakdown) -> b.host >= client_hosts.(0))
      (Obs.Anatomy.analyze
         ~wire_ns:(Exp_anatomy.predictor cluster)
         (Obs.Trace.events trace))
  in
  let reports =
    List.map
      (fun ((t : Workload.Traffic_spec.tenant), drv, kv, timeline) ->
        let whole = Harness.driver_tally drv and steady = Harness.driver_steady drv in
        (* issued = 0 just means the horizon was too short for this
           tenant's offered rate (smoke runs); issued > 0 with zero
           successes is a real outage. *)
        if whole.issued > 0 && whole.ok = 0 then
          violate "tenant %s: issued %d operations, none succeeded" t.tname whole.issued;
        {
          tname = t.tname;
          service = (if kv then "kv" else "echo");
          sources = t.sources;
          offered_rps = Workload.Traffic_spec.offered_rps t;
          whole;
          steady = (if scenario.horizon_ns < warmup_ns then None else steady);
          steady_tagged = (Option.get steady).tagged;
          timeline = Obs.Timeline.to_json timeline;
        })
      tenants
  in
  {
    scenario = scenario.sname;
    seed;
    horizon_ns = scenario.horizon_ns;
    tenants = reports;
    attribution = Obs.Anatomy.attribute breakdowns;
    analyzed_rpcs = List.length breakdowns;
    issued_rpcs =
      Array.fold_left
        (fun acc h -> acc + (Erpc.Rpc.stats d.rpcs.(h).(0)).Erpc.Rpc_stats.issued)
        0 client_hosts;
    digest = Obs.Trace.digest trace;
    events = Sim.Engine.events_processed engine;
    violations = List.rev !violations;
    breakdowns;
  }

let run_named ?seed ?scale ?horizon_ms name =
  match Workload.Traffic_spec.of_name ?scale ?horizon_ms name with
  | Some s -> run ?seed s
  | None -> invalid_arg (Printf.sprintf "Exp_cluster_load: unknown scenario %S" name)

(* Scenarios are independent (each builds its own engine and cluster),
   so [~jobs] fans them across domains; Par_sweep keeps scenario order,
   so the report is identical for any [jobs]. *)
let run_all ?seed ?scale ?horizon_ms ?jobs () =
  let names = Array.of_list (List.map fst Workload.Traffic_spec.builtin) in
  Par_sweep.list ?jobs (Array.length names) (fun i ->
      run_named ?seed ?scale ?horizon_ms names.(i))

let warmup_tagged t = Array.map2 ( - ) t.whole.tagged t.steady_tagged

let coverage r =
  if r.issued_rpcs = 0 then 0. else float_of_int r.analyzed_rpcs /. float_of_int r.issued_rpcs

let pp_result fmt r =
  Format.fprintf fmt
    "scenario %s (seed=%Ld, %d events, %d RPCs analyzed of %d issued, coverage %.3f)@."
    r.scenario r.seed r.events r.analyzed_rpcs r.issued_rpcs (coverage r);
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
        let tags a = String.concat "/" (Array.to_list (Array.map string_of_int a)) in
        Format.fprintf fmt
          "  %31s ops tagged %s: %s in the warmup, %s after; untagged p99.9=%.1fus@." ""
          (String.concat "/" (Array.to_list Obs.Op.phase_names))
          (tags (warmup_tagged t)) (tags t.steady_tagged)
          (Harness.us_at t.whole.untagged 99.9)
      end)
    r.tenants;
  (match r.attribution with
  | Some a ->
      Format.fprintf fmt
        "  tail: p50=%.1fus (%s) p99=%.1fus (%s) p99.9=%.1fus over %d samples@."
        (float_of_int a.p50_total_ns /. 1e3)
        a.p50_dominant
        (float_of_int a.p99_total_ns /. 1e3)
        a.p99_dominant
        (float_of_int a.p999_total_ns /. 1e3)
        a.samples
  | None -> Format.fprintf fmt "  tail: no complete RPCs in retained trace@.");
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

let tenant_to_json t =
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
              ("warmup", Harness.tags_json (warmup_tagged t));
              ("steady", Harness.tags_json t.steady_tagged);
            ] );
      ]
    @ kv
    @ [ ("timeline", t.timeline) ])

let result_to_json r =
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str r.scenario);
      ("seed", Obs.Json.Int (Int64.to_int r.seed));
      ("horizon_ns", Obs.Json.Int r.horizon_ns);
      ("digest", Obs.Json.Str r.digest);
      ("events", Obs.Json.Int r.events);
      ("analyzed_rpcs", Obs.Json.Int r.analyzed_rpcs);
      ("issued_rpcs", Obs.Json.Int r.issued_rpcs);
      ("coverage", Obs.Json.Float (coverage r));
      ("tenants", Obs.Json.Arr (List.map tenant_to_json r.tenants));
      ( "attribution",
        match r.attribution with
        | Some a -> Obs.Anatomy.attribution_to_json a
        | None -> Obs.Json.Null );
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
    ]
