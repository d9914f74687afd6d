type outcome = {
  rows : Obs.Json.t list;
  report : string;
  violations : string list;
  host : (string * Obs.Json.t) list;
}

type 'p entry = {
  name : string;
  doc : string;
  benchmark : string;
  unit : string;
  params : 'p -> (string * Obs.Json.t) list;
  run : seed:int64 -> 'p -> outcome;
}

type result = {
  experiment : string;
  benchmark : string;
  unit : string;
  seed : int64;
  params : (string * Obs.Json.t) list;
  outcome : outcome;
  digest : string;
  census : (string * int) list;
  events : int;
  cpu_s : float;
  wall_s : float;
  minor_words_per_event : float;
  violations : string list;
}

let schema_version = 1
let digest rows = Digest.to_hex (Digest.string (Obs.Json.to_string (Obs.Json.Arr rows)))

let run ~wall_clock ?(rerun = false) (e : _ entry) ~seed p =
  Gc.full_major ();
  let w0 = Gc.minor_words () and c0 = Sys.time () and t0 = wall_clock () in
  let outcome, census = Sim.Engine.counting (fun () -> e.run ~seed p) in
  let wall_s = wall_clock () -. t0 and cpu_s = Sys.time () -. c0 in
  let words = Gc.minor_words () -. w0 in
  let events = List.fold_left (fun acc (_, n) -> acc + n) 0 census in
  let d = digest outcome.rows in
  let rerun_violations =
    if not rerun then []
    else
      let again, census2 = Sim.Engine.counting (fun () -> e.run ~seed p) in
      let d2 = digest again.rows in
      (if d2 <> d then [ Printf.sprintf "%s: rerun digest %s <> %s" e.name d2 d ] else [])
      @
      if census2 <> census then [ Printf.sprintf "%s: rerun event census differs" e.name ]
      else []
  in
  {
    experiment = e.name;
    benchmark = e.benchmark;
    unit = e.unit;
    seed;
    params = e.params p;
    outcome;
    digest = d;
    census;
    events;
    cpu_s;
    wall_s;
    minor_words_per_event = (if events > 0 then words /. float_of_int events else 0.);
    violations = outcome.violations @ rerun_violations;
  }

let envelope r =
  let open Obs.Json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("experiment", Str r.experiment);
      ("benchmark", Str r.benchmark);
      ("unit", Str r.unit);
      ("seed", Int (Int64.to_int r.seed));
      ("params", Obj r.params);
      ("digest", Str r.digest);
      ("events", Int r.events);
      ("events_by_layer", Obj (List.map (fun (l, n) -> (l, Int n)) r.census));
      ("cpu_s", Float r.cpu_s);
      ("wall_s", Float r.wall_s);
      ("minor_words_per_event", Float r.minor_words_per_event);
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("violations", Arr (List.map (fun v -> Str v) r.violations));
      ("rows", Arr r.outcome.rows);
      ("host", Obj r.outcome.host);
    ]
