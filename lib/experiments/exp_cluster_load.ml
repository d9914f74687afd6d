type tenant_report = {
  tname : string;
  service : string;
  sources : int;
  offered_rps : float;
  issued : int;
  ok : int;
  failed : int;
  shed : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  retries : int;
  redirects : int;
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
let echo_req_type_base = 16

(* Per-tenant driving state; [issue] fires one arrival (or sheds it). *)
type tenant_state = {
  spec : Workload.Traffic_spec.tenant;
  hist : Stats.Hist.t;
  timeline : Obs.Timeline.t;
  mutable issued : int;
  mutable ok : int;
  mutable failed : int;
  mutable shed : int;
  mutable outstanding : int;
  issue : tenant_state -> now_rel:int -> unit;
  stats : unit -> int * int;  (** retries, redirects *)
}

let pctl h p =
  if Stats.Hist.count h = 0 then 0. else float_of_int (Stats.Hist.percentile h p) /. 1e3

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
  (* Measurement epoch: set once instantiation (which runs the engine to
     connect echo sessions) is done; completion callbacks read it to place
     samples on the timeline. *)
  let t0_ref = ref 0 in
  (* Every tenant's operations, KV or echo, start and finish here. *)
  let start st =
    st.issued <- st.issued + 1;
    st.outstanding <- st.outstanding + 1;
    Sim.Engine.now engine
  in
  let finish st ~started okp =
    st.outstanding <- st.outstanding - 1;
    let now = Sim.Engine.now engine in
    let lat = Sim.Time.sub now started in
    let at_ns = Sim.Time.sub now !t0_ref in
    if okp then begin
      st.ok <- st.ok + 1;
      Stats.Hist.record st.hist lat;
      Obs.Timeline.ok st.timeline ~at_ns ~latency_ns:lat
    end
    else begin
      st.failed <- st.failed + 1;
      Obs.Timeline.fail st.timeline ~at_ns
    end
  in
  (* Instantiate tenants. Creation order (tenant list order, then source
     index) fixes every rng split, so runs are reproducible. *)
  let states =
    List.mapi
      (fun ti (t : Workload.Traffic_spec.tenant) ->
        let hist = Stats.Hist.create () in
        let timeline = Obs.Timeline.create ~window_ns ~horizon_ns:scenario.horizon_ns in
        let issue, stats =
          match t.service with
          | Workload.Traffic_spec.Kv { get_pct } ->
              let pool =
                Service.Client_pool.create ~fabric:d.fabric ~map
                  ~rpcs:(Array.map (fun h -> d.rpcs.(h).(0)) client_hosts)
                  ~base_client_id:(1 + (ti * 64))
                  ~clients_per_rpc:1 ()
              in
              let krng = Sim.Rng.split (Sim.Engine.rng engine) in
              ( (fun st ~now_rel ->
                  if st.outstanding >= t.max_outstanding then st.shed <- st.shed + 1
                  else begin
                    let started = start st in
                    let key =
                      Workload.Keygen.encode
                        (Workload.Keygen.next_at t.keygen krng ~now_ns:now_rel)
                    in
                    let cont r = finish st ~started (Result.is_ok r) in
                    if Sim.Rng.int krng 100 < get_pct then
                      Service.Client_pool.get pool ~key ~deadline_ns:kv_deadline_ns ~cont
                    else
                      let value = Printf.sprintf "t%d-%08d" ti st.issued in
                      Service.Client_pool.put pool ~key ~value ~deadline_ns:kv_deadline_ns
                        ~cont
                  end),
                fun () ->
                  (Service.Client_pool.retries pool, Service.Client_pool.redirects pool) )
          | Workload.Traffic_spec.Echo { req_size; resp_size } ->
              let req_type = echo_req_type_base + ti in
              (* Sessions from every client host to every echo server; the
                 per-op cursor alternates both source and destination. *)
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
              let bufs =
                ref
                  (List.init t.max_outstanding (fun _ ->
                       ( Erpc.Msgbuf.alloc ~max_size:req_size,
                         Erpc.Msgbuf.alloc ~max_size:resp_size )))
              in
              let cursor = ref 0 in
              ( (fun st ~now_rel:_ ->
                  match !bufs with
                  | [] -> st.shed <- st.shed + 1
                  | (req, resp) :: rest ->
                      bufs := rest;
                      let started = start st in
                      Erpc.Msgbuf.resize req req_size;
                      let rpc, sess = endpoints.(!cursor) in
                      cursor := (!cursor + 1) mod Array.length endpoints;
                      Erpc.Rpc.enqueue_request rpc sess ~req_type ~req ~resp ~cont:(fun r ->
                          bufs := (req, resp) :: !bufs;
                          finish st ~started (Result.is_ok r))),
                fun () -> (0, 0) )
        in
        {
          spec = t;
          hist;
          timeline;
          issued = 0;
          ok = 0;
          failed = 0;
          shed = 0;
          outstanding = 0;
          issue;
          stats;
        })
      scenario.tenants
  in
  (* Open-loop sources: each walks its arrival process from t0 (all phase
     windows anchored there) and fires regardless of completions. *)
  let t0 = Sim.Engine.now engine in
  t0_ref := t0;
  List.iter
    (fun st ->
      for _src = 1 to st.spec.Workload.Traffic_spec.sources do
        let arng = Sim.Rng.split (Sim.Engine.rng engine) in
        let arr = Workload.Arrival.make st.spec.Workload.Traffic_spec.arrival ~rng:arng in
        let rec arm now_rel =
          let next = Workload.Arrival.next_after arr ~now_ns:now_rel in
          if next < scenario.horizon_ns then
            Sim.Engine.schedule engine (Sim.Time.add t0 next) (fun () ->
                st.issue st ~now_rel:next;
                arm next)
        in
        arm 0
      done)
    states;
  Sim.Engine.run_until engine (Sim.Time.add t0 scenario.horizon_ns);
  Sim.Engine.run_until engine (Sim.Time.add t0 (scenario.horizon_ns + settle_ns));
  Array.iter Service.Replica.stop replicas;
  Sim.Engine.run engine;
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
      (fun st ->
        let retries, redirects = st.stats () in
        (* issued = 0 just means the horizon was too short for this
           tenant's offered rate (smoke runs); issued > 0 with zero
           successes is a real outage. *)
        if st.issued > 0 && st.ok = 0 then
          violate "tenant %s: issued %d operations, none succeeded"
            st.spec.Workload.Traffic_spec.tname st.issued;
        {
          tname = st.spec.Workload.Traffic_spec.tname;
          service =
            (match st.spec.Workload.Traffic_spec.service with
            | Workload.Traffic_spec.Kv _ -> "kv"
            | Workload.Traffic_spec.Echo _ -> "echo");
          sources = st.spec.Workload.Traffic_spec.sources;
          offered_rps = Workload.Traffic_spec.offered_rps st.spec;
          issued = st.issued;
          ok = st.ok;
          failed = st.failed;
          shed = st.shed;
          mean_us =
            (if Stats.Hist.count st.hist = 0 then 0. else Stats.Hist.mean st.hist /. 1e3);
          p50_us = pctl st.hist 50.;
          p99_us = pctl st.hist 99.;
          p999_us = pctl st.hist 99.9;
          retries;
          redirects;
          timeline = Obs.Timeline.to_json st.timeline;
        })
      states
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

let coverage r =
  if r.issued_rpcs = 0 then 0. else float_of_int r.analyzed_rpcs /. float_of_int r.issued_rpcs

let pp_result fmt r =
  Format.fprintf fmt
    "scenario %s (seed=%Ld, %d events, %d RPCs analyzed of %d issued, coverage %.3f)@."
    r.scenario r.seed r.events r.analyzed_rpcs r.issued_rpcs (coverage r);
  List.iter
    (fun t ->
      Format.fprintf fmt
        "  %-14s %-5s %3d src %8.0f rps  issued=%-6d ok=%-6d failed=%-4d shed=%-4d \
         p50=%.1fus p99=%.1fus p99.9=%.1fus@."
        t.tname t.service t.sources t.offered_rps t.issued t.ok t.failed t.shed t.p50_us
        t.p99_us t.p999_us)
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

let tenant_to_json t =
  Obs.Json.Obj
    [
      ("tenant", Obs.Json.Str t.tname);
      ("service", Obs.Json.Str t.service);
      ("sources", Obs.Json.Int t.sources);
      ("offered_rps", Obs.Json.Float t.offered_rps);
      ("issued", Obs.Json.Int t.issued);
      ("ok", Obs.Json.Int t.ok);
      ("failed", Obs.Json.Int t.failed);
      ("shed", Obs.Json.Int t.shed);
      ("mean_us", Obs.Json.Float t.mean_us);
      ("p50_us", Obs.Json.Float t.p50_us);
      ("p99_us", Obs.Json.Float t.p99_us);
      ("p999_us", Obs.Json.Float t.p999_us);
      ("retries", Obs.Json.Int t.retries);
      ("redirects", Obs.Json.Int t.redirects);
      ("timeline", t.timeline);
    ]

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
