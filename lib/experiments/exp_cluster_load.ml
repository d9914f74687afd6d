type tenant_report = Kv_runner.tenant_report
type result = Kv_runner.result

let run ?(seed = 42L) scenario = Kv_runner.run ~seed scenario

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

let warmup_tagged (t : tenant_report) = Array.map2 ( - ) t.whole.tagged t.steady_tagged

let coverage (r : result) =
  if r.issued_rpcs = 0 then 0. else float_of_int r.analyzed_rpcs /. float_of_int r.issued_rpcs

let pp_result fmt (r : result) =
  Format.fprintf fmt
    "scenario %s (seed=%Ld, %d events, %d RPCs analyzed of %d issued, coverage %.3f)@."
    r.scenario r.seed r.events r.analyzed_rpcs r.issued_rpcs (coverage r);
  List.iter
    (fun (t : tenant_report) ->
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

let tenant_to_json (t : tenant_report) =
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
    @ [ ("timeline", Obs.Timeline.to_json t.timeline) ])

let result_to_json (r : result) =
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
