(* Unit tests for the sharded replicated-KV service layer: shard map
   placement and leader hints, the KV/Raft wire protocol, the
   availability timeline, and the chaos harness's own invariants. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* {2 Shard map} *)

let test_shard_map_placement () =
  let map =
    Service.Shard_map.create ~shards:4 ~replication:3 ~replica_hosts:[| 0; 1; 2; 3; 4; 5 |]
  in
  check_int "shards" 4 (Service.Shard_map.shards map);
  (* Rotation: shard s lives on hosts s, s+1, s+2 (mod 6). *)
  Alcotest.(check (array int)) "group 0" [| 0; 1; 2 |] (Service.Shard_map.group map ~shard:0);
  Alcotest.(check (array int)) "group 3" [| 3; 4; 5 |] (Service.Shard_map.group map ~shard:3);
  (* Every group has exactly [replication] distinct hosts. *)
  for s = 0 to 3 do
    let g = Service.Shard_map.group map ~shard:s in
    check_int "group size" 3 (Array.length g);
    check_int "distinct hosts" 3
      (List.length (List.sort_uniq compare (Array.to_list g)))
  done;
  (* shards_on is the inverse of group. *)
  check_bool "host 1 carries shards 0,1,3… consistent with groups" true
    (List.for_all
       (fun s -> Array.exists (( = ) 1) (Service.Shard_map.group map ~shard:s))
       (Service.Shard_map.shards_on map ~host:1))

let test_shard_map_key_routing () =
  let map =
    Service.Shard_map.create ~shards:4 ~replication:3 ~replica_hosts:[| 0; 1; 2; 3; 4; 5 |]
  in
  (* Stable, in-range, and actually spreading. *)
  let seen = Array.make 4 0 in
  for i = 0 to 999 do
    let key = Workload.Keygen.encode i in
    let s = Service.Shard_map.shard_of_key map ~key in
    check_bool "shard in range" true (s >= 0 && s < 4);
    check_int "routing is stable" s (Service.Shard_map.shard_of_key map ~key);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun s n -> check_bool (Printf.sprintf "shard %d gets fair share" s) true (n > 150))
    seen

let test_shard_map_hints () =
  let map =
    Service.Shard_map.create ~shards:2 ~replication:3 ~replica_hosts:[| 0; 1; 2; 3 |]
  in
  check_bool "no hint initially" true (Service.Shard_map.leader_hint map ~shard:0 = None);
  Service.Shard_map.set_leader_hint map ~shard:0 ~host:2;
  Service.Shard_map.set_leader_hint map ~shard:1 ~host:2;
  check_bool "hint set" true (Service.Shard_map.leader_hint map ~shard:0 = Some 2);
  (* A crashed host's hints all go at once. *)
  Service.Shard_map.clear_hints_for map ~host:2;
  check_bool "hints cleared" true
    (Service.Shard_map.leader_hint map ~shard:0 = None
    && Service.Shard_map.leader_hint map ~shard:1 = None);
  Alcotest.check_raises "replication must fit the host set"
    (Invalid_argument "Shard_map.create: replication exceeds host count") (fun () ->
      ignore (Service.Shard_map.create ~shards:1 ~replication:4 ~replica_hosts:[| 0; 1 |]))

let test_fnv1a_non_negative () =
  (* The 63-bit masking bug class: hashes must never go negative, or
     [shard_of_key] indexes out of bounds. *)
  for i = 0 to 9_999 do
    check_bool "hash >= 0" true (Workload.Keygen.fnv1a (Workload.Keygen.encode i) >= 0)
  done

(* Key placement must never move: clients and replicas route by it, and
   every shard-level golden digest depends on it. The values were
   computed with an earlier closure-based implementation. *)
let test_fnv1a_golden () =
  let map = Service.Shard_map.create ~shards:4 ~replication:3 ~replica_hosts:[| 0; 1; 2; 3 |] in
  List.iter
    (fun (key, hash, shard) ->
      Alcotest.(check int) (Printf.sprintf "fnv1a %S" key) hash (Workload.Keygen.fnv1a key);
      Alcotest.(check int)
        (Printf.sprintf "shard of %S" key)
        shard
        (Service.Shard_map.shard_of_key map ~key))
    [
      ("", 860922984064492325, 1);
      ("a", 3414815163700866188, 0);
      ("foobar", 402018224477661160, 0);
      (Workload.Keygen.encode 0, 185164334926988389, 1);
      (Workload.Keygen.encode 42, 181371019810417339, 3);
      (Workload.Keygen.encode 123456789, 2868491943509219274, 2);
      ("\255\000\128key", 143737862131329221, 1);
    ]

let test_fnv1a_no_alloc () =
  let key = Workload.Keygen.encode 42 in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Workload.Keygen.fnv1a key))
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

(* {2 Wire protocol} *)

let test_kv_proto_request_roundtrip () =
  let key = Workload.Keygen.encode 77 in
  let value = String.make Service.Kv_proto.value_size 'v' in
  let r =
    { Service.Kv_proto.op = Service.Kv_proto.Put; shard = 3; client_id = 12; seq = 345; key; value }
  in
  let m = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.req_size in
  Service.Kv_proto.write_request m r;
  let r' = Service.Kv_proto.read_request m in
  check_bool "op" true (r'.Service.Kv_proto.op = Service.Kv_proto.Put);
  check_int "shard" 3 r'.Service.Kv_proto.shard;
  check_int "client_id" 12 r'.Service.Kv_proto.client_id;
  check_int "seq" 345 r'.Service.Kv_proto.seq;
  check_str "key" key r'.Service.Kv_proto.key;
  check_str "value" value r'.Service.Kv_proto.value

let test_kv_proto_response_roundtrip () =
  let m = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.resp_max_size in
  Erpc.Msgbuf.resize m (Service.Kv_proto.resp_size ~value:None);
  Service.Kv_proto.write_response m ~status:(Service.Kv_proto.Not_leader (Some 4)) ~value:None;
  (match Service.Kv_proto.read_response m with
  | Service.Kv_proto.Not_leader (Some h), None -> check_int "hint host" 4 h
  | _ -> Alcotest.fail "Not_leader hint lost");
  let value = String.make Service.Kv_proto.value_size 'g' in
  let m = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.resp_max_size in
  Erpc.Msgbuf.resize m (Service.Kv_proto.resp_size ~value:(Some value));
  Service.Kv_proto.write_response m ~status:Service.Kv_proto.Ok_ ~value:(Some value);
  match Service.Kv_proto.read_response m with
  | Service.Kv_proto.Ok_, Some v -> check_str "value round-trips" value v
  | _ -> Alcotest.fail "Ok_+value lost"

let test_kv_proto_cmd_roundtrip () =
  let key = Workload.Keygen.encode 5 in
  let value = String.make Service.Kv_proto.value_size 'q' in
  let cmd = Service.Kv_proto.encode_cmd ~client_id:7 ~seq:123 ~key ~value in
  check_int "cmd size" Service.Kv_proto.cmd_size (String.length cmd);
  let client_id, seq, key', value' = Service.Kv_proto.decode_cmd cmd in
  check_int "client_id" 7 client_id;
  check_int "seq" 123 seq;
  check_str "key" key key';
  check_str "value" value value';
  (* No-op barrier entries are recognizable and never collide with a real
     client. *)
  let nc, nseq, _, _ = Service.Kv_proto.decode_cmd (Service.Kv_proto.noop_cmd ~seq:9) in
  check_int "noop client id" Service.Kv_proto.noop_client_id nc;
  check_int "noop seq" 9 nseq

let test_raft_frame_roundtrip () =
  let msg =
    Raft.Core.Append_entries
      {
        term = 3;
        leader_id = 1;
        prev_log_index = 4;
        prev_log_term = 2;
        entries = [ { Raft.Log.term = 3; cmd = "hello-entry" } ];
        leader_commit = 4;
      }
  in
  let m = Erpc.Msgbuf.alloc ~max_size:(Service.Kv_proto.raft_frame_size msg) in
  Service.Kv_proto.write_raft_frame m ~shard:2 msg;
  let shard, msg' = Service.Kv_proto.read_raft_frame m in
  check_int "shard" 2 shard;
  match msg' with
  | Raft.Core.Append_entries { term; entries = [ e ]; _ } ->
      check_int "term" 3 term;
      check_str "entry" "hello-entry" e.Raft.Log.cmd
  | _ -> Alcotest.fail "frame did not round-trip"

(* {2 Availability timeline} *)

let test_timeline_windows_and_gaps () =
  let w = 10_000_000 in
  let tl = Obs.Timeline.create ~window_ns:w ~horizon_ns:(5 * w) in
  (* Window 0: healthy. Window 1: attempts but zero successes (a gap).
     Window 2: empty (not a gap). Windows 3-4: healthy again. *)
  Obs.Timeline.ok tl ~at_ns:100 ~latency_ns:1_000;
  Obs.Timeline.ok tl ~at_ns:200 ~latency_ns:3_000;
  Obs.Timeline.fail tl ~at_ns:(w + 1);
  Obs.Timeline.fail tl ~at_ns:(w + 2);
  Obs.Timeline.ok tl ~at_ns:(3 * w) ~latency_ns:2_000;
  Obs.Timeline.ok tl ~at_ns:(4 * w) ~latency_ns:2_000;
  check_int "gap windows" 1 (Obs.Timeline.gaps tl);
  check_int "longest gap" w (Obs.Timeline.longest_gap_ns tl);
  let windows = Obs.Timeline.windows tl in
  check_int "window count" 5 (List.length windows);
  (match windows with
  | (t0, ok0, fail0, p50, _) :: (_, ok1, fail1, _, _) :: _ ->
      check_int "w0 start" 0 t0;
      check_int "w0 ok" 2 ok0;
      check_int "w0 fail" 0 fail0;
      check_bool "w0 p50 sane" true (p50 >= 1_000 && p50 <= 3_000);
      check_int "w1 ok" 0 ok1;
      check_int "w1 fail" 2 fail1
  | _ -> Alcotest.fail "missing windows");
  check_bool "timeline JSON is well-formed" true
    (Json_check.validate (Obs.Json.to_string (Obs.Timeline.to_json tl)))

(* {2 Chaos harness} *)

(* One kv-chaos run: the scenario built from [seed] with [plan]. *)
let kv_chaos plan ~seed =
  Experiments.Kv_runner.run ~seed (Workload.Traffic_spec.kv_chaos ~seed (Some plan))

let test_chaos_run_clean_and_deterministic () =
  let r1 = kv_chaos Workload.Traffic_spec.Leader_crash ~seed:7L in
  Alcotest.(check (list string)) "no invariant violations" [] r1.violations;
  check_bool "made progress under faults" true (r1.acked > r1.issued / 2);
  check_bool "observed the injected crashes" true (r1.restarts >= 1);
  let r2 = kv_chaos Workload.Traffic_spec.Leader_crash ~seed:7L in
  check_str "same seed, byte-identical fault trace" r1.trace r2.trace;
  check_int "same seed, same ack count" r1.acked r2.acked;
  let row = Experiments.Kv_runner.to_json r1 in
  check_bool "run JSON is well-formed" true (Json_check.validate (Obs.Json.to_string row));
  (* kv-chaos runs record no event trace, so the row carries no trace
     digest or attribution coverage, not the empty trace's. *)
  match row with
  | Obs.Json.Obj fields ->
      List.iter
        (fun k -> check_bool (k ^ " is null untraced") true (List.assoc k fields = Obs.Json.Null))
        [ "digest"; "analyzed_rpcs"; "coverage"; "attribution" ]
  | _ -> Alcotest.fail "row is not an object"

(* Golden fault-trace digests captured before the codec refactor moved
   Kv_proto and Raft.Wire onto schema combinators. Equality here proves
   the compact wire bytes and every CPU charge on the replicated-KV
   datapath are unchanged — the refactor is invisible to the chaos
   schedule.

   The digests were re-captured when [Sim.Timer] became lazy. The run
   ends with [Engine.run], which used to drain stale 5 ms RTO events, so
   only the final [quiesce] line's timestamp moved (seed 40000:
   405006387 -> 403000000; seed 40001: 405005703 -> 404500000). Every
   other line and both ack counts are unchanged. *)
let test_chaos_golden_digests () =
  List.iter
    (fun (seed, scenario, digest, acked) ->
      let r = kv_chaos scenario ~seed in
      check_str
        (Printf.sprintf "seed %Ld trace digest" seed)
        digest
        (Digest.to_hex (Digest.string r.trace));
      check_int (Printf.sprintf "seed %Ld acked" seed) acked r.acked)
    [
      ( 40_000L,
        Workload.Traffic_spec.Leader_crash,
        "9c84f5553b29d90dfd06d5b7f3722bf9",
        1200 );
      ( 40_001L,
        Workload.Traffic_spec.Tor_partition,
        "f11fa629f027f52ad545b953c24f0dc9",
        1187 );
    ]

(* The runner's per-operation history on the default 20-seed suite's
   index 5 (seed 563645, tor-partition): one entry per issued operation,
   unique PUT values, and every value a GET read written to its key by a
   PUT invoked before the GET completed. This is a necessary condition of
   linearizability, not the whole of it. *)
(* tor-partition at seed 563645 cuts a shard leader off from its
   followers while clients still reach it: the old leader serves two
   stale GETs (keys 167 and 299) during the two-leader window. *)
let stale_read_run =
  lazy
    (kv_chaos Workload.Traffic_spec.Tor_partition ~seed:563_645L)

let test_kv_history () =
  let module K = Experiments.Kv_runner in
  let r = Lazy.force stale_read_run in
  check_int "one entry per issued operation" r.issued (List.length r.history);
  let puts = Hashtbl.create 1024 in
  List.iter
    (fun (e : K.entry) ->
      match (e.kind, e.value) with
      | K.Put, Some v ->
          check_bool (Printf.sprintf "PUT value %s is unique" v) false (Hashtbl.mem puts v);
          Hashtbl.replace puts v e
      | K.Put, None -> Alcotest.fail "a PUT without its value"
      | K.Get, _ -> ())
    r.history;
  let reads = ref 0 in
  List.iter
    (fun (e : K.entry) ->
      match (e.kind, e.value) with
      | K.Get, Some v -> (
          incr reads;
          match Hashtbl.find_opt puts v with
          | Some (p : K.entry) ->
              check_bool
                (Printf.sprintf "GET of %s at %d read %s, written to %s at %d" e.key
                   e.complete_ns v p.key p.invoke_ns)
                true
                (p.key = e.key && p.invoke_ns < e.complete_ns)
          | None -> Alcotest.failf "GET of %s read %S, which no PUT wrote" e.key v)
      | _ -> ())
    r.history;
  check_bool (Printf.sprintf "GETs read values (%d)" !reads) true (!reads > 100)

let test_linearizability_flags_stale_reads () =
  let r = Lazy.force stale_read_run in
  let flagged =
    List.filter_map
      (fun v ->
        if String.starts_with ~prefix:"not linearizable: key " v then
          Some (int_of_string (String.sub v 22 16))
        else None)
      r.violations
  in
  Alcotest.(check (list int)) "the two stale keys, and only they" [ 167; 299 ] flagged

(* Hand-built single-key histories. *)
let kv_op ?(result = Obs.Op.Ok_) kind value invoke_ns complete_ns =
  {
    Experiments.Kv_runner.client_id = 1;
    seq = invoke_ns;
    key = "k";
    kind;
    value;
    invoke_ns;
    complete_ns;
    result;
  }

let linearizable h = Experiments.Kv_runner.linearizability_violations h = []

let test_linearizability_hand_built () =
  let module K = Experiments.Kv_runner in
  let put ?result v = kv_op ?result K.Put (Some v) and get ?result v = kv_op ?result K.Get v in
  let failed = Obs.Op.Failed in
  check_bool "a failed PUT may take effect after it failed" true
    (linearizable
       [
         put "a" 0 10;
         put ~result:failed "b" 20 30;
         get (Some "a") 40 50;
         get (Some "b") 60 70;
       ]);
  check_bool "a failed PUT may never take effect" true
    (linearizable [ put "a" 0 10; put ~result:failed "b" 20 30; get (Some "a") 40 50 ]);
  check_bool "a read of a failed PUT's value before its invoke" false
    (linearizable [ get (Some "b") 0 10; put ~result:failed "b" 20 30 ]);
  check_bool "stale read after an acked overwrite" false
    (linearizable [ put "a" 0 10; put "b" 20 30; get (Some "a") 40 50 ]);
  check_bool "miss after an acked PUT" false
    (linearizable [ put "a" 0 10; get ~result:Obs.Op.Miss None 20 30 ]);
  check_bool "a miss before any PUT reads the absent register" true
    (linearizable [ get ~result:Obs.Op.Miss None 0 5; put "a" 10 20; get (Some "a") 30 40 ]);
  check_bool "a failed GET constrains nothing" true
    (linearizable [ put "a" 0 10; put "b" 20 30; get ~result:failed None 40 50 ]);
  check_bool "reads overlapping a PUT may see either value" true
    (linearizable [ put "a" 0 10; put "b" 20 60; get (Some "b") 30 40; get (Some "b") 45 50 ]);
  check_bool "but not new, then old" false
    (linearizable [ put "a" 0 10; put "b" 20 60; get (Some "b") 30 40; get (Some "a") 45 50 ])

let suite =
  [
    Alcotest.test_case "shard map: placement" `Quick test_shard_map_placement;
    Alcotest.test_case "shard map: key routing" `Quick test_shard_map_key_routing;
    Alcotest.test_case "shard map: leader hints" `Quick test_shard_map_hints;
    Alcotest.test_case "fnv1a never negative" `Quick test_fnv1a_non_negative;
    Alcotest.test_case "fnv1a golden placement" `Quick test_fnv1a_golden;
    Alcotest.test_case "fnv1a allocates nothing" `Quick test_fnv1a_no_alloc;
    Alcotest.test_case "kv proto: request roundtrip" `Quick test_kv_proto_request_roundtrip;
    Alcotest.test_case "kv proto: response roundtrip" `Quick test_kv_proto_response_roundtrip;
    Alcotest.test_case "kv proto: command roundtrip" `Quick test_kv_proto_cmd_roundtrip;
    Alcotest.test_case "kv proto: raft frame roundtrip" `Quick test_raft_frame_roundtrip;
    Alcotest.test_case "timeline: windows and gaps" `Quick test_timeline_windows_and_gaps;
    Alcotest.test_case "kv-chaos: clean and deterministic" `Quick
      test_chaos_run_clean_and_deterministic;
    Alcotest.test_case "kv-chaos: golden trace digests" `Quick test_chaos_golden_digests;
    Alcotest.test_case "kv runner: per-op history" `Quick test_kv_history;
    Alcotest.test_case "linearizability: stale reads flagged" `Quick
      test_linearizability_flags_stale_reads;
    Alcotest.test_case "linearizability: hand-built histories" `Quick
      test_linearizability_hand_built;
  ]
