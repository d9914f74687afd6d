type service =
  | Echo of { req_size : int; resp_size : int }
  | Kv of { get_pct : int }

type tenant = {
  tname : string;
  sources : int;
  arrival : Arrival.spec;
  keygen : Keygen.t;
  service : service;
  max_outstanding : int;
}

type scenario = { sname : string; tenants : tenant list; horizon_ns : int }

let offered_rps t = float_of_int t.sources *. Arrival.mean_rate_rps t.arrival

let num_keys = 4096

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))
let ms f = int_of_float (f *. 1e6)

(* Per-source rates are modest; populations supply the aggregate. 16
   sources x 2500 rps = 40 krps per tenant at scale 1. *)

let steady_poisson ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  {
    sname = "steady-poisson";
    horizon_ns = ms horizon_ms;
    tenants =
      [
        {
          tname = "kv-steady";
          sources = scaled scale 16;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen = Keygen.uniform ~n:num_keys;
          service = Kv { get_pct = 50 };
          max_outstanding = 256;
        };
        {
          tname = "echo-small";
          sources = scaled scale 16;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen = Keygen.uniform ~n:num_keys;
          service = Echo { req_size = 32; resp_size = 32 };
          max_outstanding = 256;
        };
      ];
  }

let hot_key_shift ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  {
    sname = "hot-key-shift";
    horizon_ns = ms horizon_ms;
    tenants =
      [
        {
          tname = "kv-hot";
          sources = scaled scale 16;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen =
            Keygen.hot_shift
              ~base:(Keygen.zipf ~n:num_keys ~theta:0.99)
              ~period_ns:(ms 25.0) ~stride:(num_keys / 4);
          service = Kv { get_pct = 80 };
          max_outstanding = 256;
        };
        {
          tname = "echo-small";
          sources = scaled scale 8;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen = Keygen.uniform ~n:num_keys;
          service = Echo { req_size = 32; resp_size = 32 };
          max_outstanding = 256;
        };
      ];
  }

let bursty_mixed ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  {
    sname = "bursty-mixed";
    horizon_ns = ms horizon_ms;
    tenants =
      [
        {
          tname = "kv-bursty";
          sources = scaled scale 16;
          (* 4 ms bursts at 8 krps, 6 ms quiet: 40% duty, 3.2 krps mean
             per source. All sources burst in phase. *)
          arrival =
            Arrival.On_off { rate_rps = 8_000.; on_ns = ms 4.0; off_ns = ms 6.0 };
          keygen = Keygen.zipf ~n:num_keys ~theta:0.99;
          service = Kv { get_pct = 50 };
          max_outstanding = 256;
        };
        {
          tname = "echo-bursty";
          sources = scaled scale 16;
          arrival =
            Arrival.On_off { rate_rps = 8_000.; on_ns = ms 4.0; off_ns = ms 6.0 };
          keygen = Keygen.uniform ~n:num_keys;
          service = Echo { req_size = 32; resp_size = 32 };
          max_outstanding = 256;
        };
        {
          tname = "bulk-transfer";
          sources = scaled scale 4;
          (* Diurnal ramp of 64 kB transfers: quiet troughs, ~2 krps
             peaks per source that land on top of the small-RPC bursts. *)
          arrival =
            Arrival.Ramp { base_rps = 200.; peak_rps = 2_000.; period_ns = ms 50.0 };
          keygen = Keygen.uniform ~n:num_keys;
          service = Echo { req_size = 64 * 1024; resp_size = 32 };
          max_outstanding = 32;
        };
      ];
  }

(* "local-mesh": a microservice-mesh echo tenant plus a KV tenant. The
   cluster-load experiment colocates part of the client tier with the echo
   servers for this scenario, so echo sessions split between the
   intra-host shared-memory transport and the wire while KV traffic stays
   fully remote. *)
let local_mesh ?(scale = 1.0) ?(horizon_ms = 100.0) () =
  {
    sname = "local-mesh";
    horizon_ns = ms horizon_ms;
    tenants =
      [
        {
          (* Microservice-mesh RPCs: the experiment colocates part of the
             client tier with the echo tier, so this tenant's sessions mix
             intra-host (shared-memory ring) and cross-host (wire) paths. *)
          tname = "echo-mesh";
          sources = scaled scale 16;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen = Keygen.uniform ~n:num_keys;
          service = Echo { req_size = 32; resp_size = 32 };
          max_outstanding = 256;
        };
        {
          tname = "kv-remote";
          sources = scaled scale 16;
          arrival = Arrival.Poisson { rate_rps = 2_500. };
          keygen = Keygen.uniform ~n:num_keys;
          service = Kv { get_pct = 50 };
          max_outstanding = 256;
        };
      ];
  }

let builtin =
  [
    ("steady-poisson", steady_poisson);
    ("hot-key-shift", hot_key_shift);
    ("bursty-mixed", bursty_mixed);
    ("local-mesh", local_mesh);
  ]

let of_name ?scale ?horizon_ms name =
  List.assoc_opt name builtin |> Option.map (fun f -> f ?scale ?horizon_ms ())
