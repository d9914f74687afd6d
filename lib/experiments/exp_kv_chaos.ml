type scenario = Leader_crash | Tor_partition | Rolling_restart | Hot_shard

let scenario_name = function
  | Leader_crash -> "leader-crash"
  | Tor_partition -> "tor-partition"
  | Rolling_restart -> "rolling-restart"
  | Hot_shard -> "hot-shard"

type run_result = Kv_runner.result

module T = Workload.Traffic_spec

(* Layout: cx4 two-tier, 2 hosts per ToR. Replica hosts 0-5 span ToRs
   0-2, so a ToR partition cuts real quorums; clients live on ToR 3. *)
let layout =
  {
    T.nodes = 10;
    replica_hosts = [| 0; 1; 2; 3; 4; 5 |];
    echo_hosts = [||];
    client_hosts = [| 6; 7 |];
    colocated = [];
  }

let horizon_ns = 300_000_000
let op_gap_ns = 500_000
let num_keys = 400
let ms n = n * 1_000_000
let shards = Service.Shard_map.shards (Kv_runner.shard_map layout)

let faults ~seed = function
  | Leader_crash ->
      (* One slow crash (detected by the management plane) and one fast
         restart (invisible to it: peers must recover via bounded
         retransmission), on different groups, both mid-load. *)
      let shard = Int64.to_int (Int64.rem seed (Int64.of_int shards)) in
      [
        T.Crash_leader { at_ns = ms 60; shard; down_ns = ms 30 };
        Crash_leader { at_ns = ms 150; shard = (shard + 1) mod shards; down_ns = ms 4 };
      ]
  | Tor_partition ->
      [
        T.Scheduled
          { at_ns = ms 60; fault = Partition { tor_a = 0; tor_b = 1; heal_ns = ms 50 } };
        Scheduled
          { at_ns = ms 150; fault = Partition { tor_a = 1; tor_b = 2; heal_ns = ms 40 } };
      ]
  | Rolling_restart ->
      List.init (Array.length layout.replica_hosts) (fun i ->
          T.Scheduled
            {
              at_ns = ms (40 + (25 * i));
              fault =
                Crash
                  {
                    host = layout.replica_hosts.(i);
                    down_ns = (if i mod 2 = 0 then ms 8 else ms 4);
                  };
            })
  | Hot_shard ->
      (* Load is Zipfian (see [spec]); crash the group that owns the
         hottest key while it soaks the skew. *)
      let shard =
        Service.Shard_map.shard_of_key (Kv_runner.shard_map layout)
          ~key:(Workload.Keygen.encode 0)
      in
      [ T.Crash_leader { at_ns = ms 70; shard; down_ns = ms 30 } ]

(* Each client host issues one operation every [op_gap_ns]; every fifth
   of a client's operations is a GET, the rest PUTs. *)
let spec ~seed scenario =
  {
    T.sname = (match scenario with Some s -> scenario_name s | None -> "none");
    layout;
    tenants =
      [
        {
          tname = "kv";
          sources = Array.length layout.client_hosts;
          arrival = Every op_gap_ns;
          service =
            Kv
              {
                keygen =
                  (if scenario = Some Hot_shard then
                     Workload.Keygen.zipf ~n:num_keys ~theta:0.99
                   else Workload.Keygen.uniform ~n:num_keys);
                mix = Get_every 5;
                deadline_ns = ms 40;
              };
          (* A slot per operation: none is ever shed. *)
          max_outstanding = Array.length layout.client_hosts * horizon_ns / op_gap_ns;
        };
      ];
    horizon_ns;
    window_ns = ms 10;
    settle_ns = ms 80;
    traced = false;
    faults = Option.fold ~none:[] ~some:(faults ~seed) scenario;
  }

let run_one ?(scenario = Leader_crash) ~seed () =
  Kv_runner.run ~seed (spec ~seed (Some scenario))

let scenarios = [| Leader_crash; Tor_partition; Rolling_restart; Hot_shard |]

(* Seeds are independent (each run builds its own cluster and engine),
   so [~jobs] fans them across domains; Par_sweep returns results in
   seed order, keeping the report identical to a sequential run. *)
let run_suite ?(seed = 42L) ?(seeds = 20) ?jobs () =
  Par_sweep.list ?jobs seeds (fun i ->
      let seed = Int64.add (Int64.sub seed 42L) (Int64.of_int (40_000 + (104_729 * i))) in
      run_one ~scenario:scenarios.(i mod Array.length scenarios) ~seed ())

(* The run's one tenant: its tally, merged latencies and timeline. *)
let kv (r : run_result) =
  let t = List.hd r.tenants in
  (t.whole, Harness.merged t.whole.lat, t.timeline)

let longest_gap_ms tl = float_of_int (Obs.Timeline.longest_gap_ns tl) /. 1e6

let pp_run fmt (r : run_result) =
  let w, lat, tl = kv r in
  Format.fprintf fmt
    "seed=%Ld %-15s issued=%d acked=%d failed=%d retries=%d redirects=%d drops=%d \
     dedup=%d restarts=%d p50=%.1fus p99=%.1fus tags=%s untagged-p99.9=%.1fus \
     gaps=%d(max %.0fms) %s"
    r.seed r.scenario r.issued r.acked r.failed w.backoffs w.redirects r.raft_drops
    r.dedup_hits r.restarts (Harness.us_at lat 50.) (Harness.us_at lat 99.)
    (String.concat "/" (Array.to_list (Array.map string_of_int w.tagged)))
    (Harness.us_at w.untagged 99.9) (Obs.Timeline.gaps tl) (longest_gap_ms tl)
    (if r.violations = [] then "PASS"
     else "VIOLATIONS: " ^ String.concat "; " r.violations)

let run_to_json (r : run_result) =
  let w, lat, tl = kv r in
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Int (Int64.to_int r.seed));
      ("scenario", Obs.Json.Str r.scenario);
      ("issued", Obs.Json.Int r.issued);
      ("acked", Obs.Json.Int r.acked);
      ("failed", Obs.Json.Int r.failed);
      ("retries", Obs.Json.Int w.backoffs);
      ("redirects", Obs.Json.Int w.redirects);
      ("raft_drops", Obs.Json.Int r.raft_drops);
      ("dedup_hits", Obs.Json.Int r.dedup_hits);
      ("restarts", Obs.Json.Int r.restarts);
      ("p50_us", Obs.Json.Float (Harness.us_at lat 50.));
      ("p99_us", Obs.Json.Float (Harness.us_at lat 99.));
      ("tags", Harness.tags_json w.tagged);
      ("untagged_p999_us", Obs.Json.Float (Harness.us_at w.untagged 99.9));
      ("commit_p50_us", Obs.Json.Float (Harness.us_at r.commit 50.));
      ("commit_p99_us", Obs.Json.Float (Harness.us_at r.commit 99.));
      ("gap_windows", Obs.Json.Int (Obs.Timeline.gaps tl));
      ("longest_gap_ms", Obs.Json.Float (longest_gap_ms tl));
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
      ("timeline", Obs.Timeline.to_json tl);
      ("trace_digest", Obs.Json.Str (Digest.to_hex (Digest.string r.trace)));
    ]

let baseline_json ?(seed = 42L) () =
  let r = Kv_runner.run ~seed (spec ~seed None) in
  let _, lat, tl = kv r in
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Int (Int64.to_int seed));
      ("commit_p50_us", Obs.Json.Float (Harness.us_at r.commit 50.));
      ("commit_p99_us", Obs.Json.Float (Harness.us_at r.commit 99.));
      ("client_p50_us", Obs.Json.Float (Harness.us_at lat 50.));
      ("client_p99_us", Obs.Json.Float (Harness.us_at lat 99.));
      ("acked", Obs.Json.Int r.acked);
      ("failed", Obs.Json.Int r.failed);
      ("gap_windows", Obs.Json.Int (Obs.Timeline.gaps tl));
      ("violations", Obs.Json.Arr (List.map (fun v -> Obs.Json.Str v) r.violations));
      ("timeline", Obs.Timeline.to_json tl);
    ]
