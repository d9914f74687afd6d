type arrival = Process of Arrival.spec | Every of int
type kv_mix = Get_pct of int | Get_every of int

type service =
  | Echo of { req_size : int; resp_size : int }
  | Kv of { keygen : Keygen.t; mix : kv_mix; deadline_ns : int }

type tenant = {
  tname : string;
  sources : int;
  arrival : arrival;
  service : service;
  max_outstanding : int;
}

type layout = {
  nodes : int;
  replica_hosts : int array;
  echo_hosts : int array;
  client_hosts : int array;
  colocated : int list list;
}

type fault =
  | Scheduled of Faults.Schedule.event
  | Crash_leader of { at_ns : int; shard : int; down_ns : int }

type scenario = {
  sname : string;
  layout : layout;
  tenants : tenant list;
  horizon_ns : int;
  window_ns : int;
  settle_ns : int;
  traced : bool;
  faults : fault list;
}

let offered_rps t =
  float_of_int t.sources
  *.
  match t.arrival with
  | Process spec -> Arrival.mean_rate_rps spec
  | Every gap_ns -> 1e9 /. float_of_int gap_ns

let num_keys = 4096

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))
let ms f = int_of_float (f *. 1e6)

(* KV replicas span ToRs 0-2 (so shard quorums cross racks), echo servers
   fill ToR 3, clients ToRs 4-5: every request crosses the spine, like a
   real multi-rack service. *)
let layout =
  {
    nodes = 12;
    replica_hosts = [| 0; 1; 2; 3; 4; 5 |];
    echo_hosts = [| 6; 7 |];
    client_hosts = [| 8; 9; 10; 11 |];
    colocated = [];
  }

let scenario ?(layout = layout) sname horizon_ms tenants =
  {
    sname;
    layout;
    tenants;
    horizon_ns = ms horizon_ms;
    window_ns = 5_000_000;
    settle_ns = 60_000_000;
    traced = true;
    faults = [];
  }

let kv get_pct keygen = Kv { keygen; mix = Get_pct get_pct; deadline_ns = 20_000_000 }
let poisson rate_rps = Process (Arrival.Poisson { rate_rps })

(* Per-source rates are modest; populations supply the aggregate. 16
   sources x 2500 rps = 40 krps per tenant at scale 1. *)

let steady_poisson ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  scenario "steady-poisson" horizon_ms
    [
      {
        tname = "kv-steady";
        sources = scaled scale 16;
        arrival = poisson 2_500.;
        service = kv 50 (Keygen.uniform ~n:num_keys);
        max_outstanding = 256;
      };
      {
        tname = "echo-small";
        sources = scaled scale 16;
        arrival = poisson 2_500.;
        service = Echo { req_size = 32; resp_size = 32 };
        max_outstanding = 256;
      };
    ]

let hot_key_shift ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  scenario "hot-key-shift" horizon_ms
    [
      {
        tname = "kv-hot";
        sources = scaled scale 16;
        arrival = poisson 2_500.;
        service =
          kv 80
            (Keygen.hot_shift
               ~base:(Keygen.zipf ~n:num_keys ~theta:0.99)
               ~period_ns:(ms 25.0) ~stride:(num_keys / 4));
        max_outstanding = 256;
      };
      {
        tname = "echo-small";
        sources = scaled scale 8;
        arrival = poisson 2_500.;
        service = Echo { req_size = 32; resp_size = 32 };
        max_outstanding = 256;
      };
    ]

let bursty_mixed ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  scenario "bursty-mixed" horizon_ms
    [
      {
        tname = "kv-bursty";
        sources = scaled scale 16;
        (* 4 ms bursts at 8 krps, 6 ms quiet: 40% duty, 3.2 krps mean
           per source. All sources burst in phase. *)
        arrival =
          Process (Arrival.On_off { rate_rps = 8_000.; on_ns = ms 4.0; off_ns = ms 6.0 });
        service = kv 50 (Keygen.zipf ~n:num_keys ~theta:0.99);
        max_outstanding = 256;
      };
      {
        tname = "echo-bursty";
        sources = scaled scale 16;
        arrival =
          Process (Arrival.On_off { rate_rps = 8_000.; on_ns = ms 4.0; off_ns = ms 6.0 });
        service = Echo { req_size = 32; resp_size = 32 };
        max_outstanding = 256;
      };
      {
        tname = "bulk-transfer";
        sources = scaled scale 4;
        (* Diurnal ramp of 64 kB transfers: quiet troughs, ~2 krps
           peaks per source that land on top of the small-RPC bursts. *)
        arrival =
          Process (Arrival.Ramp { base_rps = 200.; peak_rps = 2_000.; period_ns = ms 50.0 });
        service = Echo { req_size = 64 * 1024; resp_size = 32 };
        max_outstanding = 32;
      };
    ]

(* "local-mesh": a microservice-mesh echo tenant plus a KV tenant. Clients
   8 and 9 share a machine with the echo servers, so their echo sessions
   split between the shared-memory rings (to the co-resident server) and
   the wire (to the other one), while clients 10-11 and all KV traffic stay
   fully remote. *)
let local_mesh ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  scenario "local-mesh" horizon_ms
    ~layout:{ layout with colocated = [ [ 6; 8 ]; [ 7; 9 ] ] }
    [
      {
        tname = "echo-mesh";
        sources = scaled scale 16;
        arrival = poisson 2_500.;
        service = Echo { req_size = 32; resp_size = 32 };
        max_outstanding = 256;
      };
      {
        tname = "kv-remote";
        sources = scaled scale 16;
        arrival = poisson 2_500.;
        service = kv 50 (Keygen.uniform ~n:num_keys);
        max_outstanding = 256;
      };
    ]

let builtin =
  [
    ("steady-poisson", steady_poisson);
    ("hot-key-shift", hot_key_shift);
    ("bursty-mixed", bursty_mixed);
    ("local-mesh", local_mesh);
  ]

let of_name ?scale ?horizon_ms name =
  List.assoc_opt name builtin |> Option.map (fun f -> f ?scale ?horizon_ms ())

(* {2 kv-chaos} *)

let kv_shards = 4

type chaos_plan = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

let chaos_plans =
  [
    (Leader_crash, "leader-crash");
    (Tor_partition, "tor-partition");
    (Rolling_restart, "rolling-restart");
    (Hot_shard, "hot-shard");
  ]

(* Two hosts per ToR: replica hosts 0-5 span ToRs 0-2, so a ToR partition
   cuts real quorums; clients live on ToR 3. *)
let chaos_layout =
  {
    nodes = 10;
    replica_hosts = [| 0; 1; 2; 3; 4; 5 |];
    echo_hosts = [||];
    client_hosts = [| 6; 7 |];
    colocated = [];
  }

let chaos_horizon_ns = 300_000_000
let chaos_op_gap_ns = 500_000

let chaos_faults ~seed = function
  | Leader_crash ->
      (* One slow crash (detected by the management plane) and one fast
         restart (invisible to it: peers must recover via bounded
         retransmission), on different groups, both mid-load. *)
      let shard = Int64.to_int (Int64.rem seed (Int64.of_int kv_shards)) in
      [
        Crash_leader { at_ns = ms 60.0; shard; down_ns = ms 30.0 };
        Crash_leader
          { at_ns = ms 150.0; shard = (shard + 1) mod kv_shards; down_ns = ms 4.0 };
      ]
  | Tor_partition ->
      [
        Scheduled
          { at_ns = ms 60.0; fault = Partition { tor_a = 0; tor_b = 1; heal_ns = ms 50.0 } };
        Scheduled
          { at_ns = ms 150.0; fault = Partition { tor_a = 1; tor_b = 2; heal_ns = ms 40.0 } };
      ]
  | Rolling_restart ->
      List.init (Array.length chaos_layout.replica_hosts) (fun i ->
          Scheduled
            {
              at_ns = (40 + (25 * i)) * 1_000_000;
              fault =
                Crash
                  {
                    host = chaos_layout.replica_hosts.(i);
                    down_ns = (if i mod 2 = 0 then ms 8.0 else ms 4.0);
                  };
            })
  | Hot_shard ->
      (* Load is Zipfian; crash the group that owns the hottest key, rank
         0, while it soaks the skew. *)
      let shard = Keygen.shard ~shards:kv_shards (Keygen.encode 0) in
      [ Crash_leader { at_ns = ms 70.0; shard; down_ns = ms 30.0 } ]

(* Each client host issues one operation every [chaos_op_gap_ns]; every
   fifth of a client's operations is a GET, the rest PUTs. *)
let kv_chaos ~seed plan =
  {
    sname = Option.fold ~none:"none" ~some:(fun p -> List.assoc p chaos_plans) plan;
    layout = chaos_layout;
    tenants =
      [
        {
          tname = "kv";
          sources = Array.length chaos_layout.client_hosts;
          arrival = Every chaos_op_gap_ns;
          service =
            Kv
              {
                keygen =
                  (if plan = Some Hot_shard then Keygen.zipf ~n:400 ~theta:0.99
                   else Keygen.uniform ~n:400);
                mix = Get_every 5;
                deadline_ns = ms 40.0;
              };
          (* A slot per operation: none is ever shed. *)
          max_outstanding =
            Array.length chaos_layout.client_hosts * chaos_horizon_ns / chaos_op_gap_ns;
        };
      ];
    horizon_ns = chaos_horizon_ns;
    window_ns = ms 10.0;
    settle_ns = ms 80.0;
    traced = false;
    faults = Option.fold ~none:[] ~some:(chaos_faults ~seed) plan;
  }

let kv_chaos_suite ~seed ~seeds =
  let plans = Array.of_list (List.map fst chaos_plans) in
  List.init seeds (fun i ->
      let seed = Int64.add (Int64.sub seed 42L) (Int64.of_int (40_000 + (104_729 * i))) in
      (seed, kv_chaos ~seed (Some plans.(i mod Array.length plans))))

(* {2 echo-chaos} *)

(* Draw a schedule that actually mixes fault kinds: a handful of events
   over nine kinds occasionally collapses onto two or three, which would
   leave recovery paths untested. The retry is a deterministic function of
   the seed, so reruns stay reproducible. *)
let pick_schedule ~seed ~horizon_ns ~events ~hosts ~tors =
  let rec go s tries =
    let sched = Faults.Schedule.random ~seed:s ~horizon_ns ~events ~hosts ~tors in
    if Faults.Schedule.num_kinds sched >= 4 || tries = 0 then sched
    else go (Int64.add s 1_000_003L) (tries - 1)
  in
  go seed 100

let echo_chaos ~seed =
  let ops = 120 and horizon_ns = ms 45.0 and settle_ns = ms 15.0 in
  let schedule =
    pick_schedule ~seed ~horizon_ns:(horizon_ns + settle_ns) ~events:12 ~hosts:10 ~tors:5
  in
  (* kv-chaos's ten hosts, each both echo server and client. *)
  let all = Array.init chaos_layout.nodes Fun.id in
  {
    sname = "echo-chaos";
    layout = { chaos_layout with replica_hosts = [||]; echo_hosts = all; client_hosts = all };
    tenants =
      [
        {
          tname = "echo";
          sources = 1;
          arrival = Every (horizon_ns / ops);
          service = Echo { req_size = 32; resp_size = 32 };
          max_outstanding = ops;
        };
      ];
    horizon_ns;
    window_ns = ms 5.0;
    settle_ns;
    traced = true;
    faults = List.map (fun e -> Scheduled e) schedule;
  }

let echo_chaos_suite ~seed ~seeds =
  List.init seeds (fun i ->
      let seed = Int64.add (Int64.sub seed 42L) (Int64.of_int (1_000 + (7_919 * i))) in
      (seed, echo_chaos ~seed))
