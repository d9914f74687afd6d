(* Tests for the engine's event queue: the timing wheel, checked against
   a binary heap ([Binheap], local to the tests) as an oracle. Both must
   pop the exact same sequence for the same pushes. *)

module Q = Sim.Timing_wheel

let check_int = Alcotest.(check int)

(* Drain a queue into a [(time, id) list]. *)
let drain_with pop q =
  let rec go acc =
    match pop q with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let drain q = drain_with Q.pop q

(* What the tests drive on both the wheel and the oracle. *)
module type QUEUE = sig
  type 'a t

  val create : unit -> 'a t
  val is_empty : 'a t -> bool
  val push : 'a t -> int -> int -> int -> unit
  val push_ptr : 'a t -> int -> int -> 'a -> unit
  val reserve_seq : 'a t -> int
  val push_seq : 'a t -> int -> int -> int -> int -> unit
  val pop : 'a t -> (int * int) option
  val pop_if_before : 'a t -> int -> int
  val last_arg : 'a t -> int
  val take_ptr : 'a t -> 'a
  val last_time : 'a t -> int
end

let test_same_time_fifo () =
  let q = Q.create () in
  (* Three bursts at the same timestamp, interleaved with other times:
     ties must pop in push order. *)
  for i = 0 to 99 do
    Q.push q 500 (1_000 + i) 0;
    Q.push q 100 (2_000 + i) 0;
    Q.push q 500 (1_100 + i) 0
  done;
  let got = drain q in
  let at t = List.filter_map (fun (t', v) -> if t = t' then Some v else None) got in
  let expect_500 =
    List.concat_map (fun i -> [ 1_000 + i; 1_100 + i ]) (List.init 100 Fun.id)
  in
  Alcotest.(check (list int)) "t=100 FIFO" (List.init 100 (fun i -> 2_000 + i)) (at 100);
  Alcotest.(check (list int)) "t=500 FIFO" expect_500 (at 500);
  check_int "drained" 300 (List.length got)

(* The bitmap scan, exhaustively through the public API: for every
   distance [d] the window can hold, the next pop must find a slot [d]
   past the last popped one. [cur] moves on by [d + 1] each round, so the
   pairs land at every slot alignment, cross the l0, l1 and l2 word
   boundaries, and wrap around the wheel many times. *)
let test_scan_every_distance () =
  let q = Q.create () in
  let cur = ref 0 in
  for d = 1 to 16_383 do
    let t0 = !cur and t1 = !cur + d in
    Q.push q t1 1 0;
    Q.push q t0 0 0;
    (match (Q.pop q, Q.pop q) with
     | Some (a, 0), Some (b, 1) when a = t0 && b = t1 -> ()
     | _ -> Alcotest.failf "distance %d from %d: wrong pop" d t0);
    cur := t1 + 1
  done;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_pop_if_before () =
  let q = Q.create () in
  Q.push q 10 1 0;
  Q.push q 20 2 0;
  Q.push q 20 3 0;
  Q.push q 30 4 0;
  (* Horizon below the minimum: nothing pops, queue untouched. *)
  check_int "too early" (-1) (Q.pop_if_before q 9);
  check_int "untouched" 4 (Q.length q);
  check_int "at min" 1 (Q.pop_if_before q 10);
  check_int "last_time" 10 (Q.last_time q);
  (* Ties under the horizon pop in push order. *)
  check_int "tie 1" 2 (Q.pop_if_before q 25);
  check_int "tie 2" 3 (Q.pop_if_before q 25);
  check_int "above horizon" (-1) (Q.pop_if_before q 25);
  check_int "final" 4 (Q.pop_if_before q 1_000_000);
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_window_boundary () =
  (* The wheel covers a 16384 ns window past the last popped time; events
     beyond it sit in an overflow heap and migrate in as the window
     advances. Straddle the boundary repeatedly and check order (and
     same-time FIFO across the wheel/heap seam) against the binheap. *)
  let build (module M : QUEUE) =
    let q = M.create () in
    let boundary = 16_384 in
    List.iteri
      (fun i off ->
        M.push q off (2 * i) 0;
        M.push q off ((2 * i) + 1) 0)
      [
        boundary - 1; boundary; boundary + 1; 0; boundary * 3; 1;
        boundary - 1; boundary * 2; boundary; 5; (boundary * 2) + 1; boundary * 10;
      ];
    (* Pop a few to advance the window (migrating heap entries in), then
       push more events behind and beyond the new window. *)
    let popped = ref [] in
    for _ = 1 to 6 do
      match M.pop q with
      | Some (t, v) -> popped := (t, v) :: !popped
      | None -> Alcotest.fail "queue exhausted early"
    done;
    List.iteri
      (fun i off -> M.push q off (100 + i) 0)
      [ 2; boundary + 2; (boundary * 4) + 7; 3; boundary * 4 ];
    List.rev_append !popped (drain_with M.pop q)
  in
  let wheel = build (module Q) in
  let heap = build (module Binheap) in
  Alcotest.(check (list (pair int int))) "wheel = binheap across window boundary" heap wheel

(* A push under a reserved seq pops exactly where a push made at
   reservation time would have: ahead of same-time events pushed after the
   reservation, in the slot being drained, across the window edge, and
   after a wait in the overflow heap. *)
let test_reserved_seq_placement () =
  let q = Q.create () in
  let names =
    [| "a"; "b"; "c"; "edge"; "last-slot"; "far"; "slot"; "edge-reserved"; "far-reserved";
       "near-far"; "far-late" |]
  in
  let id name =
    let rec find i = if names.(i) = name then i else find (i + 1) in
    find 0
  in
  let push time name = Q.push q time (id name) 0 in
  let pop () = match Q.pop q with Some (_, v) -> names.(v) | None -> Alcotest.fail "empty" in
  let edge = 10 + 16_384 and far = 1_000_000 in
  push 10 "a";
  let r_slot = Q.reserve_seq q in
  push 10 "b";
  let r_edge = Q.reserve_seq q in
  let r_far = Q.reserve_seq q in
  push 10 "c";
  push edge "edge";
  push (edge - 1) "last-slot";
  push far "far";
  Alcotest.(check string) "first" "a" (pop ());
  (* The window now starts at 10: the slot being drained still holds b, c. *)
  Q.push_seq q 10 r_slot (id "slot") 0;
  Q.push_seq q edge r_edge (id "edge-reserved") 0;
  Q.push_seq q far r_far (id "far-reserved") 0;
  (* Bring the window up to [far - 5]: the far cells must merge by seq
     with a same-time cell pushed straight into the wheel. *)
  push (far - 5) "near-far";
  let rest = List.init 7 (fun _ -> pop ()) in
  push far "far-late";
  let rest = rest @ List.map (fun (_, v) -> names.(v)) (drain q) in
  Alcotest.(check (list string))
    "reserved placement"
    [ "slot"; "b"; "c"; "last-slot"; "edge-reserved"; "edge"; "near-far";
      "far-reserved"; "far"; "far-late" ]
    rest

(* Random push/pop interleavings: the wheel must agree with the binheap
   oracle event-for-event, including tie order, interleaved pops that
   advance the window mid-stream, and pushes under reserved seqs. Bursts
   push more cells than the wheel's initial cell arrays hold (1024), so
   the arrays grow while cells sit both in wheel slots and in the overflow
   heap, and again when a drained queue is refilled past its size.

   Int events (even ids) carry an argument derived from their id, pointer
   events (odd ids) a string derived from it, and every pop must return
   what was pushed with that id, across heap migration and array growth.
   Pops go through the engine's fused [pop_if_before] + [last_arg] +
   [take_ptr], some with a push in between: it must not reuse the popped
   event's cell before its pointer is taken. *)
let test_equivalence_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel matches binheap on random interleavings" ~count:200
       QCheck2.Gen.(
         list_size (int_range 1 400)
           (frequency
              [
                ( 100,
                  oneof
                    [
                      (* push at a small offset (in-window) *)
                      map (fun t -> `Push t) (int_range 0 1_000);
                      (* push far out (overflow heap) *)
                      map (fun t -> `Push t) (int_range 16_000 200_000);
                      return `Pop;
                      (* a pop with a push at that offset before the popped
                         argument is taken *)
                      map (fun dt -> `Pop_push dt) (int_range 0 20_000);
                      return `Reserve;
                      (* push under the oldest outstanding reservation: into the
                         slot being drained, across the window edge, or out into
                         the overflow heap *)
                      map
                        (fun t -> `Push_reserved t)
                        (oneof [ return 0; int_range 16_380 16_390; int_range 16_000 200_000 ]);
                      (* drain, then one far push onto the idle queue followed by
                         near ones: an RTO armed before a burst of packet events *)
                      map2
                        (fun far near -> `Drain_far (far, near))
                        (int_range 20_000 10_000_000)
                        (list_size (int_range 1 20) (int_range 0 10_000));
                    ] );
                (* a burst of near and far pushes, interleaved *)
                (1, map2 (fun n salt -> `Burst (n, salt)) (int_range 100 1_200) nat);
                (* drain to empty, then refill past the grown size *)
                (1, map2 (fun n salt -> `Drain_refill (n, salt)) (int_range 600 2_000) nat);
              ]))
       (fun ops ->
         let arg v = (3 * v) + 1 and ptr v = "ptr" ^ string_of_int v in
         let run (module M : QUEUE) =
           let q = M.create () in
           let log = ref [] in
           let reserved = Queue.create () in
           (* Every other push is a pointer event. *)
           let push t v =
             if v land 1 = 0 then M.push q t (2 * v) (arg (2 * v))
             else M.push_ptr q t ((2 * v) + 1) (ptr ((2 * v) + 1))
           in
           (* [mid] runs between the pop and the taking of its pointer. *)
           let pop_then mid =
             if M.is_empty q then log := (-1, -1, -1, "") :: !log
             else begin
               let v = M.pop_if_before q max_int in
               let t = M.last_time q in
               mid t;
               let p = if v land 1 = 1 then M.take_ptr q else "" in
               log := (t, v, M.last_arg q, p) :: !log
             end
           in
           let pop () = pop_then ignore in
           (* Times are relative to the last popped time so pushes stay
              valid (an engine never schedules in the past) while still
              straddling the window. *)
           let now () = if M.is_empty q then 0 else M.last_time q in
           let drain () =
             while not (M.is_empty q) do
               pop ()
             done
           in
           (* [n] pushes from [t0], each in the wheel window or beyond it,
              with offsets drawn from [salt] so both queues see the same. *)
           let burst i t0 n salt =
             let st = Random.State.make [| salt |] in
             for k = 0 to n - 1 do
               let dt =
                 if Random.State.bool st then Random.State.int st 16_000
                 else 16_000 + Random.State.int st 184_000
               in
               push (t0 + dt) (1_000_000 + (i * 10_000) + k)
             done
           in
           List.iteri
             (fun i op ->
               match op with
               | `Push dt -> push (now () + dt) i
               | `Reserve -> Queue.push (M.reserve_seq q) reserved
               | `Push_reserved dt ->
                   if not (Queue.is_empty reserved) then
                     M.push_seq q (now () + dt) (Queue.pop reserved) (2 * i) (arg (2 * i))
               | `Pop -> pop ()
               | `Pop_push dt -> pop_then (fun t -> push (t + dt) (2_000_000 + i))
               | `Drain_far (far, near) ->
                   drain ();
                   let t0 = M.last_time q in
                   push (t0 + far) i;
                   List.iteri (fun k dt -> push (t0 + dt) ((i * 100) + k)) near
               | `Burst (n, salt) -> burst i (now ()) n salt
               | `Drain_refill (n, salt) ->
                   drain ();
                   burst i (M.last_time q) n salt)
             ops;
           drain ();
           List.rev !log
         in
         let wheel = run (module Q) in
         wheel = run (module Binheap)
         && List.for_all
              (fun (_, v, a, p) ->
                v = -1 || if v land 1 = 1 then a = 0 && p = ptr v else a = arg v && p = "")
              wheel))

(* After an idle gap the first push can be a far one: eRPC arms a
   millisecond-scale RTO before the request's packets exist. Only that event may wait in the
   overflow heap: the near events pushed after it must use the wheel,
   whose window stays at the clock rather than jumping to the far event. *)
let test_far_push_on_idle_queue () =
  let e = Sim.Engine.create ~seed:1L () in
  let overflow () = Obs.Metrics.max_gauge (Sim.Engine.metrics e) ~name:"sim.queue_overflow" in
  let fired = ref 0 in
  let tick () = incr fired in
  Sim.Engine.schedule e 100_000 tick;
  Sim.Engine.run e;
  check_int "queue idle" 0 (Sim.Engine.pending e);
  Sim.Engine.schedule e 6_000_000 tick;
  for i = 0 to 99 do
    Sim.Engine.schedule e (100_000 + (i * 100)) tick
  done;
  Alcotest.(check (float 1e-9)) "only the far event overflows" 1.0 (overflow ());
  Sim.Engine.run e;
  check_int "all fired" 102 !fired;
  Alcotest.(check (float 1e-9)) "overflow drains" 0.0 (overflow ())

(* A popped pointer is the caller's: the queue must not keep it alive
   from a recycled cell, whether it popped from a wheel slot or the
   overflow heap. A pointer never taken is released by the next pop. A
   pointer still queued must stay alive. Int events carry no pointer. The
   engine's one-shot closures are such pointers: a closure that has run
   is released too. *)
let test_no_retention_after_pop () =
  let q = Q.create () in
  let w = Weak.create 5 in
  let[@inline never] push i time =
    let v = Bytes.make 16 (Char.chr (65 + i)) in
    Weak.set w i (Some v);
    Q.push_ptr q time i v;
    (* An int event between the pointer events. *)
    Q.push q time (100 + i) i
  in
  push 0 10;
  push 1 1_000_000;
  push 2 2_000_000;
  push 3 20;
  push 4 30;
  let[@inline never] pop ~take =
    let id = Q.pop_if_before q max_int in
    if take then ignore (Sys.opaque_identity (Q.take_ptr q));
    (* Its int event. *)
    check_int "int event after its pointer event" (100 + id) (Q.pop_if_before q max_int);
    check_int "int argument" id (Q.last_arg q)
  in
  pop ~take:true;
  pop ~take:true;
  pop ~take:false;
  pop ~take:true;
  Gc.full_major ();
  Alcotest.(check bool) "wheel pointer released" false (Weak.check w 0);
  Alcotest.(check bool) "heap pointer released" false (Weak.check w 1);
  Alcotest.(check bool) "queued pointer kept" true (Weak.check w 2);
  Alcotest.(check bool) "taken pointer released" false (Weak.check w 3);
  Alcotest.(check bool) "untaken pointer released by a later pop" false (Weak.check w 4);
  check_int "two left" 2 (Q.length q);
  (* Closure events through the engine. *)
  let e = Sim.Engine.create ~seed:1L () in
  let wc = Weak.create 2 in
  let[@inline never] schedule i at =
    let v = Bytes.make 16 'c' in
    Weak.set wc i (Some v);
    Sim.Engine.schedule e at (fun () -> ignore (Sys.opaque_identity v))
  in
  schedule 0 10;
  schedule 1 1_000_000;
  Sim.Engine.run_until e 100;
  Gc.full_major ();
  Alcotest.(check bool) "run closure released" false (Weak.check wc 0);
  Alcotest.(check bool) "queued closure kept" true (Weak.check wc 1);
  Sim.Engine.run e

(* Handler events and closure events share one tie-break order: at one
   timestamp they run in the order they were scheduled, whichever entry
   point scheduled them, and each handler gets its own argument. The
   census counts each event under its handler's layer. *)
let test_same_time_fifo_mixed () =
  let e = Sim.Engine.create ~seed:1L () in
  let log = ref [] in
  let note s = log := s :: !log in
  let h_s = Sim.Engine.handler e ~layer:Sim.Engine.Rpc (fun n -> note (Printf.sprintf "s%d" n)) in
  let h_i = Sim.Engine.handler e ~layer:Sim.Engine.Timer (fun n -> note (Printf.sprintf "i%d" n)) in
  for i = 0 to 9 do
    if i mod 3 = 0 then Sim.Engine.schedule e 100 (fun () -> note (Printf.sprintf "u%d" i))
    else if i mod 3 = 1 then Sim.Engine.post e 100 h_s i
    else Sim.Engine.post e 100 h_i i
  done;
  Sim.Engine.post_after e 0 h_s (-1);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "schedule order"
    [ "s-1"; "u0"; "s1"; "i2"; "u3"; "s4"; "i5"; "u6"; "s7"; "i8"; "u9" ]
    (List.rev !log);
  Alcotest.(check (list (pair string int)))
    "census"
    [ ("netsim.link", 0); ("nic", 0); ("rpc", 4); ("shm", 0);
      ("timer", 3); ("closure", 4) ]
    (Sim.Engine.census e);
  check_int "events" 11 (Sim.Engine.events_processed e);
  Alcotest.check_raises "no_handler raises" (Invalid_argument "Engine: event posted to no_handler")
    (fun () ->
      Sim.Engine.post e 200 Sim.Engine.no_handler 0;
      Sim.Engine.run e)

(* {2 Whole-simulator properties} *)

(* Event order on a full chaos run is pinned by its event-trace digest: a
   scheduler change that reorders any event — same-time ties included —
   changes it. The event count moves with any change to how many events a
   packet costs. *)
let test_chaos_golden_digest () =
  let r =
    Experiments.Kv_runner.run ~seed:4242L (Workload.Traffic_spec.echo_chaos ~seed:4242L)
  in
  Alcotest.(check string) "event-trace digest" "a23e67281a5da1c2" r.digest;
  check_int "event count" 2495 r.events;
  Alcotest.(check (list string)) "no invariant violations" [] r.violations

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
          ~payload:(Experiments.Harness.Echo { req_size = 1024; resp_size = 32 })
          ~rpc ~sessions ~window:8 ())
  in
  Array.iter Experiments.Harness.start_driver drivers;
  d

(* {3 Per-op GC budgets}

   Each budget is per completed operation: an engine change that deletes
   events leaves the work per op, and so the bar, where it was. Each was
   first set per engine event and restated per op by multiplying it by
   the events per op the same window measured then, so no bar moved. *)

(* A measured window: minor and promoted words, and completed
   operations. *)
type window = { words : float; promoted : float; ops : int }

let per_op w x = x /. float_of_int w.ops

let gc_words () =
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted)

(* A 2 ms closed-loop echo on a fresh deployment, after a first run has
   grown the pools and tables, as in bench-sim. *)
let echo_allocation_window () =
  let run () =
    let d = closed_loop_echo () in
    Experiments.Harness.run_ms d 2.0;
    Experiments.Harness.total_completed d
  in
  ignore (run ());
  Gc.full_major ();
  let w0, p0 = gc_words () in
  let ops = run () in
  let w1, p1 = gc_words () in
  { words = w1 -. w0; promoted = p1 -. p0; ops }

(* 4 ms of the same echo in steady state, after a 1 ms warmup, starting
   from an empty minor heap. *)
let echo_promotion_window () =
  let d = closed_loop_echo () in
  Experiments.Harness.run_ms d 1.0;
  Gc.full_major ();
  let ops0 = Experiments.Harness.total_completed d in
  let w0, p0 = gc_words () in
  Experiments.Harness.run_ms d 4.0;
  let w1, p1 = gc_words () in
  { words = w1 -. w0; promoted = p1 -. p0; ops = Experiments.Harness.total_completed d - ops0 }

(* One shard on 3 replicas, 2 smart clients, an open loop of alternating
   PUTs and GETs every 20 us, measured for 30 ms after a 10 ms warmup.
   Every op runs the client's retry loop and both typed codecs; every PUT
   also runs Raft replication, command encode/apply and the dedup
   table. *)
let kv_allocation_window () =
  let cluster = Transport.Cluster.cx5 ~nodes:5 () in
  let d = Experiments.Harness.deploy ~seed:11L cluster ~threads_per_host:1 in
  let engine = Erpc.Fabric.engine d.fabric in
  let map = Service.Shard_map.create ~shards:1 ~replication:3 ~replica_hosts:[| 0; 1; 2 |] in
  let replicas =
    Array.map
      (fun host ->
        Service.Replica.create ~fabric:d.fabric ~nexus:d.nexuses.(host)
          ~rpc:d.rpcs.(host).(0) ~map ~host ())
      [| 0; 1; 2 |]
  in
  let clients =
    Array.init 2 (fun i ->
        Service.Kv_client.create ~fabric:d.fabric ~rpc:d.rpcs.(3 + i).(0) ~map
          ~client_id:(i + 1) ())
  in
  let elected () = Array.exists (fun r -> Service.Replica.is_leader r ~shard:0) replicas in
  let budget = ref 100 in
  while (not (elected ())) && !budget > 0 do
    Experiments.Harness.run_ms d 5.0;
    decr budget
  done;
  Alcotest.(check bool) "leader elected" true (elected ());
  let keys = Array.init 64 (fun k -> Workload.Keygen.encode k) in
  let value = String.make Service.Kv_proto.value_size 'v' in
  let completed = ref 0 and failed = ref 0 in
  let on_put = function Ok () -> incr completed | Error _ -> incr failed in
  let on_get = function Ok _ -> incr completed | Error _ -> incr failed in
  let issued = ref 0 in
  let rec arrival () =
    let n = !issued in
    incr issued;
    let client = clients.(n land 1) and key = keys.((n lsr 1) land 63) in
    if n land 2 = 0 then
      ignore
        (Service.Kv_client.put client ~key ~value ~deadline_ns:20_000_000 ~cont:on_put)
    else ignore (Service.Kv_client.get client ~key ~deadline_ns:20_000_000 ~cont:on_get);
    Sim.Engine.schedule_after engine 20_000 arrival
  in
  arrival ();
  (* Warm up: session handshakes, pool and table growth. *)
  Experiments.Harness.run_ms d 10.0;
  Gc.full_major ();
  let done0 = !completed in
  let w0, p0 = gc_words () in
  Experiments.Harness.run_ms d 30.0;
  let w1, p1 = gc_words () in
  Array.iter Service.Replica.stop replicas;
  check_int "no failed ops" 0 !failed;
  Alcotest.(check bool) "ops completed in the window" true (!completed - done0 > 1000);
  { words = w1 -. w0; promoted = p1 -. p0; ops = !completed - done0 }

(* The pooled datapath, packets that keep their header and handle across
   reuse, and int-only handler events keep the echo's allocation low
   (closures for RPC continuations, queue cells): 58.4 words per op.
   The bar was 4 words per event at 16.57 events per op, so 66.3 words
   per op; per-packet or per-event boxing blows well past it. It was
   4.45 words per event while pooled packets took a fresh header record
   and payload triple per send. *)
let test_allocation_budget () =
  let w = echo_allocation_window () in
  let words_per_op = per_op w w.words in
  if words_per_op > 66.3 then
    Alcotest.failf "allocation budget blown: %.1f minor words/op (budget 66.3)" words_per_op

(* A value that outlives a minor collection costs a copy now and
   major-GC marking later. 0.104 words per op are promoted. The bar was
   0.009 promoted words per event at 16.54 events per op, so 0.149 per
   op. It read 0.0118 per event while every event stored its handler and
   packet pointers in the wheel and every port hop stored its packet in a
   ring. *)
let test_promotion_budget () =
  let w = echo_promotion_window () in
  let promoted_per_op = per_op w w.promoted in
  if promoted_per_op > 0.149 then
    Alcotest.failf "promotion budget blown: %.4f promoted words/op (budget 0.149)"
      promoted_per_op

(* 489 words per op. The bar was 20 words per event at 28.43 events per
   op, so 569 words per op. It read 34.1 words per event before the
   service path's allocation diet (cursor codec reads, per-sslot handler
   closures, pooled Raft calls and client buffers, the client's op
   record) and 15.7 after. *)
let test_kv_allocation_budget () =
  let w = kv_allocation_window () in
  let words_per_op = per_op w w.words in
  if words_per_op > 569. then
    Alcotest.failf "KV allocation budget blown: %.0f minor words/op (budget 569)" words_per_op

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
  let sessions = 3 and window = Erpc.Config.req_window in
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
    Alcotest.test_case "same-time FIFO, with and without arguments" `Quick
      test_same_time_fifo_mixed;
    Alcotest.test_case "wheel occupancy gauge" `Quick test_wheel_occupancy_gauge;
    Alcotest.test_case "scan every distance" `Quick test_scan_every_distance;
    Alcotest.test_case "pop_if_before" `Quick test_pop_if_before;
    Alcotest.test_case "wheel window boundary" `Quick test_window_boundary;
    Alcotest.test_case "reserved seq placement" `Quick test_reserved_seq_placement;
    test_equivalence_qcheck;
    Alcotest.test_case "far push on idle queue" `Quick test_far_push_on_idle_queue;
    Alcotest.test_case "no retention after pop" `Quick test_no_retention_after_pop;
    Alcotest.test_case "chaos golden digest" `Quick test_chaos_golden_digest;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
    Alcotest.test_case "promotion budget" `Quick test_promotion_budget;
    Alcotest.test_case "queue depth bounded" `Quick test_queue_depth_bounded;
    Alcotest.test_case "kv allocation budget" `Quick test_kv_allocation_budget;
  ]
