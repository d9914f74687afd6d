(* Tests for the Raft core: elections, replication, commitment, log
   repair, safety under partitions — driven over an in-memory message bus
   with controllable delivery, plus Log unit tests and codec roundtrips. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 In-memory cluster harness} *)

type cluster = {
  mutable nodes : string Raft.Core.t array;
  inbox : (int * string Raft.Core.msg) Queue.t;
  mutable applied : (int * string) list array;  (* newest first *)
  mutable cut : (int * int) list;  (* (src, dst) pairs whose messages drop *)
}

let make_cluster ?(n = 3) () =
  let rng = Sim.Rng.create 123L in
  let cluster = { nodes = [||]; inbox = Queue.create (); applied = Array.make n []; cut = [] } in
  cluster.nodes <-
    Array.init n (fun id ->
        let peers = Array.of_list (List.filter (fun p -> p <> id) (List.init n Fun.id)) in
        Raft.Core.create ~id ~peers
          ~send:(fun dst msg ->
            if not (List.mem (id, dst) cluster.cut) then Queue.add (dst, msg) cluster.inbox)
          ~apply:(fun index cmd ->
            cluster.applied.(id) <- (index, cmd) :: cluster.applied.(id))
          ~random:(fun bound -> Sim.Rng.int rng bound)
          ());
  cluster

(* Deliver queued messages until quiescent (sends may trigger sends). *)
let deliver c =
  let budget = ref 100_000 in
  while (not (Queue.is_empty c.inbox)) && !budget > 0 do
    decr budget;
    let dst, msg = Queue.take c.inbox in
    Raft.Core.receive c.nodes.(dst) msg
  done;
  Alcotest.(check bool) "message storm bounded" true (!budget > 0)

(* Expire node [id]'s election timeout. *)
let force_election c id =
  Raft.Core.periodic c.nodes.(id)
    ~elapsed_ns:(Raft.Core.election_timeout_max_ns + 1)

let elect c id =
  force_election c id;
  deliver c;
  Alcotest.(check bool)
    (Printf.sprintf "node %d led" id)
    true
    (Raft.Core.role c.nodes.(id) = Raft.Core.Leader)

let heartbeat c id =
  Raft.Core.periodic c.nodes.(id) ~elapsed_ns:(Raft.Core.heartbeat_ns + 1);
  deliver c

let leaders c =
  Array.to_list c.nodes |> List.filter (fun n -> Raft.Core.role n = Raft.Core.Leader)

(* {2 Elections} *)

let test_single_node_self_elects () =
  let c = make_cluster ~n:1 () in
  force_election c 0;
  check_bool "leader" true (Raft.Core.role c.nodes.(0) = Raft.Core.Leader)

let test_three_node_election () =
  let c = make_cluster () in
  elect c 0;
  check_int "term 1" 1 (Raft.Core.term c.nodes.(0));
  check_bool "others follow" true
    (Raft.Core.role c.nodes.(1) = Raft.Core.Follower
    && Raft.Core.role c.nodes.(2) = Raft.Core.Follower);
  check_bool "leader known" true (Raft.Core.leader_hint c.nodes.(1) = Some 0)

let test_at_most_one_leader_per_term () =
  let c = make_cluster () in
  (* Two simultaneous candidates: delivery happens only after both have
     started their elections. *)
  force_election c 0;
  force_election c 1;
  deliver c;
  check_bool "at most one leader" true (List.length (leaders c) <= 1)

let test_stale_candidate_rejected () =
  let c = make_cluster () in
  elect c 0;
  ignore (Raft.Core.submit c.nodes.(0) "x");
  deliver c;
  (* Node 2's log is as long; node 1 tries an election with an equal log:
     fine. But a candidate with a shorter log must lose: truncate is not
     exposed, so instead verify that after replication all logs match and
     re-election by an up-to-date node succeeds. *)
  force_election c 1;
  deliver c;
  check_bool "up-to-date candidate can win" true
    (Raft.Core.role c.nodes.(1) = Raft.Core.Leader);
  check_bool "old leader stepped down" true (Raft.Core.role c.nodes.(0) = Raft.Core.Follower)

(* {2 Replication and commitment} *)

let test_replicate_and_commit () =
  let c = make_cluster () in
  elect c 0;
  (match Raft.Core.submit c.nodes.(0) "cmd-1" with
  | Ok index -> check_int "first index" 1 index
  | Error _ -> Alcotest.fail "leader rejected submit");
  deliver c;
  check_int "leader committed" 1 (Raft.Core.commit_index c.nodes.(0));
  Alcotest.(check (list (pair int string))) "leader applied" [ (1, "cmd-1") ] c.applied.(0);
  (* Followers learn the commit index with the next AppendEntries. *)
  heartbeat c 0;
  Alcotest.(check (list (pair int string))) "follower applied" [ (1, "cmd-1") ] c.applied.(1)

let test_follower_rejects_submit () =
  let c = make_cluster () in
  elect c 0;
  match Raft.Core.submit c.nodes.(1) "nope" with
  | Ok _ -> Alcotest.fail "follower accepted a command"
  | Error (`Not_leader hint) -> check_bool "points at leader" true (hint = Some 0)

let test_pipeline_many_commands () =
  let c = make_cluster () in
  elect c 0;
  for i = 1 to 200 do
    ignore (Raft.Core.submit c.nodes.(0) (Printf.sprintf "c%d" i));
    if i mod 7 = 0 then deliver c
  done;
  deliver c;
  heartbeat c 0;
  check_int "all committed" 200 (Raft.Core.commit_index c.nodes.(0));
  Array.iteri
    (fun id applied ->
      check_int (Printf.sprintf "node %d applied all" id) 200 (List.length applied);
      (* Exactly-once, in order. *)
      List.iteri
        (fun i (index, cmd) ->
          check_int "index order" (200 - i) index;
          check_bool "right command" true (cmd = Printf.sprintf "c%d" (200 - i)))
        applied)
    c.applied

let test_commit_with_one_follower_down () =
  let c = make_cluster () in
  elect c 0;
  c.cut <- [ (0, 2); (2, 0) ];
  ignore (Raft.Core.submit c.nodes.(0) "majority-only");
  deliver c;
  check_int "committed with 2/3" 1 (Raft.Core.commit_index c.nodes.(0));
  check_int "node 2 has nothing" 0 (Raft.Core.commit_index c.nodes.(2));
  (* Heal the partition: the next heartbeat repairs node 2. *)
  c.cut <- [];
  heartbeat c 0;
  heartbeat c 0;
  check_int "node 2 caught up" 1 (Raft.Core.commit_index c.nodes.(2))

let test_no_commit_without_majority () =
  let c = make_cluster () in
  elect c 0;
  c.cut <- [ (0, 1); (0, 2); (1, 0); (2, 0) ];
  ignore (Raft.Core.submit c.nodes.(0) "isolated");
  deliver c;
  check_int "not committed" 0 (Raft.Core.commit_index c.nodes.(0))

(* {2 Log repair} *)

let test_conflicting_entries_truncated () =
  let c = make_cluster () in
  elect c 0;
  (* Leader 0 appends locally but is cut off from everyone. *)
  c.cut <- [ (0, 1); (0, 2); (1, 0); (2, 0) ];
  ignore (Raft.Core.submit c.nodes.(0) "orphan-1");
  ignore (Raft.Core.submit c.nodes.(0) "orphan-2");
  deliver c;
  (* New leader elected among 1,2; commits different entries. *)
  force_election c 1;
  deliver c;
  check_bool "node 1 leads" true (Raft.Core.role c.nodes.(1) = Raft.Core.Leader);
  ignore (Raft.Core.submit c.nodes.(1) "real-1");
  deliver c;
  (* Heal: node 0 must discard its orphans and adopt the new log. *)
  c.cut <- [];
  heartbeat c 1;
  heartbeat c 1;
  let log0 = Raft.Core.log c.nodes.(0) in
  check_int "node 0 log repaired" 1 (Raft.Log.last_index log0);
  check_bool "orphans replaced" true ((Raft.Log.get log0 1).cmd = "real-1");
  (* Orphaned commands were never applied anywhere. *)
  Array.iter
    (fun applied ->
      check_bool "no orphan applied" true
        (not (List.exists (fun (_, cmd) -> cmd = "orphan-1" || cmd = "orphan-2") applied)))
    c.applied

let test_term_monotonic_across_elections () =
  let c = make_cluster () in
  elect c 0;
  let t1 = Raft.Core.term c.nodes.(0) in
  force_election c 1;
  deliver c;
  let t2 = Raft.Core.term c.nodes.(1) in
  check_bool "terms increase" true (t2 > t1);
  Array.iter (fun n -> check_int "all agree on term" t2 (Raft.Core.term n)) c.nodes

(* {2 Log module} *)

let test_log_basics () =
  let l = Raft.Log.create () in
  check_int "empty last index" 0 (Raft.Log.last_index l);
  check_int "term at 0" 0 (Raft.Log.term_at l 0);
  check_int "append 1" 1 (Raft.Log.append l { term = 1; cmd = "a" });
  check_int "append 2" 2 (Raft.Log.append l { term = 1; cmd = "b" });
  check_int "last term" 1 (Raft.Log.last_term l);
  check_bool "get" true ((Raft.Log.get l 2).cmd = "b");
  Alcotest.check_raises "get out of range" (Invalid_argument "Log.get: index 3 out of range (len 2)")
    (fun () -> ignore (Raft.Log.get l 3))

let test_log_truncate () =
  let l = Raft.Log.create () in
  for i = 1 to 5 do
    ignore (Raft.Log.append l { term = i; cmd = string_of_int i })
  done;
  Raft.Log.truncate_from l 3;
  check_int "truncated" 2 (Raft.Log.last_index l);
  check_int "tail term" 2 (Raft.Log.last_term l);
  (* Truncate beyond the end is a no-op. *)
  Raft.Log.truncate_from l 10;
  check_int "no-op" 2 (Raft.Log.last_index l)

let test_log_entries_from () =
  let l = Raft.Log.create () in
  for i = 1 to 10 do
    ignore (Raft.Log.append l { term = 1; cmd = string_of_int i })
  done;
  let es = Raft.Log.entries_from l ~from:4 ~max:3 in
  Alcotest.(check (list string)) "window" [ "4"; "5"; "6" ]
    (List.map (fun (e : string Raft.Log.entry) -> e.cmd) es);
  check_int "tail clamp" 2 (List.length (Raft.Log.entries_from l ~from:9 ~max:5))

(* {2 Codec} *)

let msg_gen : string Raft.Core.msg QCheck2.Gen.t =
  let open QCheck2.Gen in
  let nat31 = int_range 0 0x3FFFFFFF in
  oneof
    [
      (let* term = nat31 and* candidate_id = nat31 and* lli = nat31 and* llt = nat31 in
       return
         (Raft.Core.Request_vote
            { term; candidate_id; last_log_index = lli; last_log_term = llt }));
      (let* term = nat31 and* vote_granted = bool and* from = nat31 in
       return (Raft.Core.Request_vote_resp { term; vote_granted; from }));
      (let* term = nat31
       and* leader_id = nat31
       and* prev_log_index = nat31
       and* prev_log_term = nat31
       and* leader_commit = nat31
       and* entries =
         list_size (int_range 0 5)
           (let* t = nat31 and* cmd = small_string ~gen:printable in
            return { Raft.Log.term = t; cmd })
       in
       return
         (Raft.Core.Append_entries
            { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }));
      (let* term = nat31 and* success = bool and* from = nat31 and* match_index = nat31 in
       return (Raft.Core.Append_entries_resp { term; success; from; match_index }));
    ]

let codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip" ~count:500 msg_gen (fun msg ->
         Raft.Wire.decode (Raft.Wire.encode msg) = msg))

let decodes_to_error name b =
  match Raft.Wire.decode b with
  | _ -> Alcotest.failf "%s: expected Codec.Decode_error" name
  | exception Codec.Decode_error _ -> ()

let test_codec_rejects_garbage () =
  decodes_to_error "empty" Bytes.empty;
  decodes_to_error "unknown tag" (Bytes.make 8 '\255');
  decodes_to_error "truncated" (Bytes.make 3 '\000')

(* {2 Commit index} *)

(* [try_advance_commit]'s allocation-free selection must pick what the
   sort-based formula it replaced picked: sort the n match indexes
   ascending, take element n - (n/2 + 1). *)
let qcheck_majority_match =
  let gen =
    QCheck2.Gen.(int_range 1 7 >>= fun n -> array_size (return n) (int_range 0 40))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"majority_match = sort-based formula" ~count:2000 gen
       (fun matches ->
         let n = Array.length matches in
         let sorted = Array.copy matches in
         Array.sort compare sorted;
         Raft.Core.majority_match (Array.copy matches) = sorted.(n - ((n / 2) + 1))))

let suite =
  [
    Alcotest.test_case "single node self-elects" `Quick test_single_node_self_elects;
    Alcotest.test_case "three-node election" `Quick test_three_node_election;
    Alcotest.test_case "at most one leader per term" `Quick test_at_most_one_leader_per_term;
    Alcotest.test_case "re-election by up-to-date node" `Quick test_stale_candidate_rejected;
    Alcotest.test_case "replicate and commit" `Quick test_replicate_and_commit;
    Alcotest.test_case "follower rejects submit" `Quick test_follower_rejects_submit;
    Alcotest.test_case "pipeline 200 commands" `Quick test_pipeline_many_commands;
    Alcotest.test_case "commit with follower down" `Quick test_commit_with_one_follower_down;
    Alcotest.test_case "no commit without majority" `Quick test_no_commit_without_majority;
    Alcotest.test_case "conflicting entries truncated" `Quick test_conflicting_entries_truncated;
    Alcotest.test_case "terms monotonic" `Quick test_term_monotonic_across_elections;
    Alcotest.test_case "log basics" `Quick test_log_basics;
    Alcotest.test_case "log truncate" `Quick test_log_truncate;
    Alcotest.test_case "log entries_from" `Quick test_log_entries_from;
    codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    qcheck_majority_match;
  ]
