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
