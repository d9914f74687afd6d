(* Tests for the engine's event queue: the production timing wheel
   checked against the legacy binary heap as an oracle. Both must pop
   the exact same sequence for the same pushes — that equivalence is
   what makes [Sim.Event_queue.set_default_impl] trace-invariant. *)

let check_int = Alcotest.(check int)

let impls = [ ("wheel", Sim.Event_queue.Wheel); ("binheap", Sim.Event_queue.Binheap) ]

(* Drain a queue into a [(time, payload) list]. *)
let drain q =
  let rec go acc =
    match Sim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let test_same_time_fifo () =
  List.iter
    (fun (name, impl) ->
      let q = Sim.Event_queue.create ~impl () in
      (* Three bursts at the same timestamp, interleaved with other times:
         ties must pop in push order. *)
      for i = 0 to 99 do
        Sim.Event_queue.push q 500 (1_000 + i);
        Sim.Event_queue.push q 100 (2_000 + i);
        Sim.Event_queue.push q 500 (1_100 + i)
      done;
      let got = drain q in
      let at t = List.filter_map (fun (t', v) -> if t = t' then Some v else None) got in
      let expect_500 =
        List.concat_map (fun i -> [ 1_000 + i; 1_100 + i ]) (List.init 100 Fun.id)
      in
      Alcotest.(check (list int)) (name ^ ": t=100 FIFO") (List.init 100 (fun i -> 2_000 + i)) (at 100);
      Alcotest.(check (list int)) (name ^ ": t=500 FIFO") expect_500 (at 500);
      check_int (name ^ ": drained") 300 (List.length got))
    impls

let test_clear () =
  List.iter
    (fun (name, impl) ->
      let q = Sim.Event_queue.create ~impl () in
      for i = 0 to 50 do
        Sim.Event_queue.push q (i * 7) i;
        (* Some far beyond the wheel window, to land in the overflow heap. *)
        Sim.Event_queue.push q ((i * 7) + 1_000_000) i
      done;
      Sim.Event_queue.clear q;
      Alcotest.(check bool) (name ^ ": empty after clear") true (Sim.Event_queue.is_empty q);
      check_int (name ^ ": length 0") 0 (Sim.Event_queue.length q);
      Alcotest.(check bool) (name ^ ": no pop") true (Sim.Event_queue.pop q = None);
      (* The queue must be fully usable after clear. *)
      Sim.Event_queue.push q 9 1;
      Sim.Event_queue.push q 3 2;
      Alcotest.(check (list (pair int int))) (name ^ ": reusable") [ (3, 2); (9, 1) ] (drain q))
    impls

let test_pop_if_before () =
  List.iter
    (fun (name, impl) ->
      let q = Sim.Event_queue.create ~impl () in
      Sim.Event_queue.push q 10 "a";
      Sim.Event_queue.push q 20 "b";
      Sim.Event_queue.push q 20 "b2";
      Sim.Event_queue.push q 30 "c";
      let check_str = Alcotest.(check string) in
      (* Horizon below the minimum: nothing pops, queue untouched. *)
      check_str (name ^ ": too early") "none" (Sim.Event_queue.pop_if_before q 9 ~default:"none");
      check_int (name ^ ": untouched") 4 (Sim.Event_queue.length q);
      check_str (name ^ ": at min") "a" (Sim.Event_queue.pop_if_before q 10 ~default:"none");
      check_int (name ^ ": last_time") 10 (Sim.Event_queue.last_time q);
      (* Ties under the horizon pop in push order. *)
      check_str (name ^ ": tie 1") "b" (Sim.Event_queue.pop_if_before q 25 ~default:"none");
      check_str (name ^ ": tie 2") "b2" (Sim.Event_queue.pop_if_before q 25 ~default:"none");
      check_str (name ^ ": above horizon") "none" (Sim.Event_queue.pop_if_before q 25 ~default:"none");
      check_str (name ^ ": final") "c" (Sim.Event_queue.pop_if_before q 1_000_000 ~default:"none");
      Alcotest.(check bool) (name ^ ": drained") true (Sim.Event_queue.is_empty q))
    impls

let test_window_boundary () =
  (* The wheel covers a 16384 ns window past the last popped time; events
     beyond it sit in an overflow heap and migrate in as the window
     advances. Straddle the boundary repeatedly and check order (and
     same-time FIFO across the wheel/heap seam) against the binheap. *)
  let build impl =
    let q = Sim.Event_queue.create ~impl () in
    let boundary = 16_384 in
    List.iteri
      (fun i off ->
        Sim.Event_queue.push q off (2 * i);
        Sim.Event_queue.push q off ((2 * i) + 1))
      [
        boundary - 1; boundary; boundary + 1; 0; boundary * 3; 1;
        boundary - 1; boundary * 2; boundary; 5; (boundary * 2) + 1; boundary * 10;
      ];
    (* Pop a few to advance the window (migrating heap entries in), then
       push more events behind and beyond the new window. *)
    let popped = ref [] in
    for _ = 1 to 6 do
      match Sim.Event_queue.pop q with
      | Some (t, v) -> popped := (t, v) :: !popped
      | None -> Alcotest.fail "queue exhausted early"
    done;
    List.iteri
      (fun i off -> Sim.Event_queue.push q off (100 + i))
      [ 2; boundary + 2; (boundary * 4) + 7; 3; boundary * 4 ];
    List.rev_append !popped (drain q)
  in
  let wheel = build Sim.Event_queue.Wheel in
  let heap = build Sim.Event_queue.Binheap in
  Alcotest.(check (list (pair int int))) "wheel = binheap across window boundary" heap wheel

(* A push under a reserved seq pops exactly where a push made at
   reservation time would have: ahead of same-time events pushed after the
   reservation, in the slot being drained, across the window edge, and
   after a wait in the overflow heap. *)
let test_reserved_seq_placement () =
  List.iter
    (fun (name, impl) ->
      let q = Sim.Event_queue.create ~impl () in
      let pop () =
        match Sim.Event_queue.pop q with Some (_, v) -> v | None -> Alcotest.fail "empty"
      in
      let edge = 10 + 16_384 and far = 1_000_000 in
      Sim.Event_queue.push q 10 "a";
      let r_slot = Sim.Event_queue.reserve_seq q in
      Sim.Event_queue.push q 10 "b";
      let r_edge = Sim.Event_queue.reserve_seq q in
      let r_far = Sim.Event_queue.reserve_seq q in
      Sim.Event_queue.push q 10 "c";
      Sim.Event_queue.push q edge "edge";
      Sim.Event_queue.push q (edge - 1) "last-slot";
      Sim.Event_queue.push q far "far";
      Alcotest.(check string) (name ^ ": first") "a" (pop ());
      (* The window now starts at 10: the slot being drained still holds b, c. *)
      Sim.Event_queue.push_seq q 10 r_slot "slot";
      Sim.Event_queue.push_seq q edge r_edge "edge-reserved";
      Sim.Event_queue.push_seq q far r_far "far-reserved";
      (* Bring the window up to [far - 5]: the far cells must merge by seq
         with a same-time cell pushed straight into the wheel. *)
      Sim.Event_queue.push q (far - 5) "near-far";
      let rest = List.init 7 (fun _ -> pop ()) in
      Sim.Event_queue.push q far "far-late";
      let rest = rest @ List.map snd (drain q) in
      Alcotest.(check (list string))
        (name ^ ": reserved placement")
        [ "slot"; "b"; "c"; "last-slot"; "edge-reserved"; "edge"; "near-far";
          "far-reserved"; "far"; "far-late" ]
        rest)
    impls

(* Random push/pop interleavings: the wheel must agree with the binheap
   oracle event-for-event, including tie order, interleaved pops that
   advance the window mid-stream, and pushes under reserved seqs. *)
let test_equivalence_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel matches binheap on random interleavings" ~count:200
       QCheck2.Gen.(
         list_size (int_range 1 400)
           (oneof
              [
                (* push at a small offset (in-window) *)
                map (fun t -> `Push t) (int_range 0 1_000);
                (* push far out (overflow heap) *)
                map (fun t -> `Push t) (int_range 16_000 200_000);
                return `Pop;
                return `Reserve;
                (* push under the oldest outstanding reservation: into the
                   slot being drained, across the window edge, or out into
                   the overflow heap *)
                map
                  (fun t -> `Push_reserved t)
                  (oneof [ return 0; int_range 16_380 16_390; int_range 16_000 200_000 ]);
              ]))
       (fun ops ->
         let run impl =
           let q = Sim.Event_queue.create ~impl () in
           let log = ref [] in
           let reserved = Queue.create () in
           (* Times are relative to the last popped time so pushes stay
              valid (an engine never schedules in the past) while still
              straddling the window. *)
           let now () = if Sim.Event_queue.is_empty q then 0 else Sim.Event_queue.last_time q in
           List.iteri
             (fun i op ->
               match op with
               | `Push dt -> Sim.Event_queue.push q (now () + dt) i
               | `Reserve -> Queue.push (Sim.Event_queue.reserve_seq q) reserved
               | `Push_reserved dt ->
                   if not (Queue.is_empty reserved) then
                     Sim.Event_queue.push_seq q (now () + dt) (Queue.pop reserved) i
               | `Pop -> (
                   match Sim.Event_queue.pop q with
                   | Some (t, v) -> log := (t, v) :: !log
                   | None -> log := (-1, -1) :: !log))
             ops;
           List.rev_append !log (drain q)
         in
         run Sim.Event_queue.Wheel = run Sim.Event_queue.Binheap))

(* {2 Whole-simulator properties} *)

(* The two implementations must produce byte-identical traces on a full
   chaos run — same events, same order, same simulated results. *)
let test_cross_impl_trace_identity () =
  let run impl =
    Sim.Event_queue.set_default_impl impl;
    Fun.protect ~finally:(fun () -> Sim.Event_queue.set_default_impl Sim.Event_queue.Wheel)
    @@ fun () -> Experiments.Chaos.run_one ~seed:4242L ()
  in
  let w = run Sim.Event_queue.Wheel in
  let b = run Sim.Event_queue.Binheap in
  Alcotest.(check string) "trace identical across impls" b.Experiments.Chaos.trace w.trace;
  check_int "same event count" b.events w.events;
  Alcotest.(check (list string)) "no invariant violations" [] w.violations

(* Closed-loop echo: 3 client hosts, one session each to a fourth host,
   8 requests in flight per session. *)
let closed_loop_echo () =
  let cluster = Transport.Cluster.cx4 ~nodes:4 () in
  let d =
    Experiments.Harness.deploy ~seed:7L cluster ~threads_per_host:1
      ~register:(Experiments.Harness.register_echo ~resp_size:32)
  in
  let drivers =
    Array.init 3 (fun h ->
        let rpc = d.rpcs.(h).(0) in
        let sessions = [| Experiments.Harness.connect d rpc ~remote_host:3 ~remote_rpc_id:0 |] in
        Experiments.Harness.make_driver
          ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
          ~rpc ~sessions ~window:8 ~req_size:1024 ())
  in
  Array.iter Experiments.Harness.start_driver drivers;
  d

(* Allocation budget: the pooled datapath plus the wheel's cell free-list
   keep steady-state cost near 6 minor-heap words per event (closures for
   RPC continuations, timer records); the budget of 8 leaves headroom for
   GC jitter only. A regression that reintroduces per-packet or per-event
   boxing blows well past this. *)
let test_allocation_budget () =
  let run () =
    let d = closed_loop_echo () in
    Experiments.Harness.run_ms d 2.0;
    Sim.Engine.events_processed (Erpc.Fabric.engine d.fabric)
  in
  (* Warm once so one-time pool/table growth is excluded, as in bench-sim. *)
  ignore (run ());
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let events = run () in
  let words = Gc.minor_words () -. w0 in
  let per_event = words /. float_of_int events in
  if per_event > 8. then
    Alcotest.failf "allocation budget blown: %.1f minor words/event (budget 8)" per_event

(* Queue depth must not grow with the number of completed requests. Every
   request arms a 5 ms RTO timer and re-arms it on each response packet;
   the run lasts past [rto_ns], so a timer that queued one event per arm
   would hold about two pending events per completed request here. *)
let test_queue_depth_bounded () =
  let d = closed_loop_echo () in
  let engine = Erpc.Fabric.engine d.fabric in
  let peak = ref 0 in
  let rec sample () =
    peak := max !peak (Sim.Engine.pending engine);
    Sim.Engine.schedule_after engine 1_000 sample
  in
  sample ();
  Experiments.Harness.run_ms d 6.0;
  let completed = Experiments.Harness.total_completed d in
  let sessions = 3 and window = (Erpc.Fabric.config d.fabric).req_window in
  Alcotest.(check bool)
    (Printf.sprintf "ran well past rto_ns (%d completed)" completed)
    true
    (completed > 40 * sessions * window);
  (* Measured peak: 49 pending events over 17 272 completed requests. *)
  if !peak > 4 * sessions * window then
    Alcotest.failf "queue depth %d exceeds 4 x sessions x req_window = %d" !peak
      (4 * sessions * window)

(* The wheel-occupancy gauge (partition load-imbalance observability):
   it must track how many wheel slots hold pending events and drain back
   to zero with the queue. *)
let test_wheel_occupancy_gauge () =
  let e = Sim.Engine.create ~seed:1L () in
  Sim.Engine.schedule e 10 (fun () -> ());
  Sim.Engine.schedule e 5_000 (fun () -> ());
  let occ () = Obs.Metrics.max_gauge (Sim.Engine.metrics e) ~name:"sim.wheel_occupancy" in
  Alcotest.(check bool) "gauge sees pending events" true (occ () >= 1.);
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "gauge drains to zero" 0.0 (occ ())

let suite =
  [
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "wheel occupancy gauge" `Quick test_wheel_occupancy_gauge;
    Alcotest.test_case "clear semantics" `Quick test_clear;
    Alcotest.test_case "pop_if_before" `Quick test_pop_if_before;
    Alcotest.test_case "wheel window boundary" `Quick test_window_boundary;
    Alcotest.test_case "reserved seq placement" `Quick test_reserved_seq_placement;
    test_equivalence_qcheck;
    Alcotest.test_case "cross-impl trace identity" `Quick test_cross_impl_trace_identity;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
    Alcotest.test_case "queue depth bounded" `Quick test_queue_depth_bounded;
  ]
