(* Unit and property tests for the simulation substrate: time, RNG, event
   queue, engine, timers, CPU timelines. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 Time} *)

let test_time_conversions () =
  check_int "us" 1_500 (Sim.Time.us 1.5);
  check_int "ms" 2_000_000 (Sim.Time.ms 2.0);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Time.to_us 1_500);
  check_int "add" 30 (Sim.Time.add 10 20);
  check_int "sub" 7 (Sim.Time.sub 17 10)

let test_serialization_delay () =
  (* 1000 bytes at 8 Gbps = 1000 ns. *)
  check_int "1000B @ 8Gbps" 1_000 (Sim.Time.of_bytes_at_gbps 1000 8.0);
  (* 92 bytes at 25 Gbps = 29.44 -> 30 ns (rounded up). *)
  check_int "92B @ 25Gbps" 30 (Sim.Time.of_bytes_at_gbps 92 25.0);
  check_int "rounding up" 1 (Sim.Time.of_bytes_at_gbps 1 1000.0)

(* {2 Rng} *)

let test_rng_determinism () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.next a = Sim.Rng.next b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let c = Sim.Rng.split a in
  let v1 = Sim.Rng.next a and v2 = Sim.Rng.next c in
  check_bool "split streams differ" true (v1 <> v2)

let test_rng_int_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Sim.Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_uniformity () =
  let r = Sim.Rng.create 5L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Sim.Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d count %d within 5%% of %d" i c (n / 10))
        true
        (abs (c - (n / 10)) < n / 200))
    buckets

let test_rng_bernoulli () =
  let r = Sim.Rng.create 6L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bool_with_prob r 0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  check_bool (Printf.sprintf "p=0.3 measured %.3f" ratio) true (abs_float (ratio -. 0.3) < 0.01)

(* The SplitMix64 stream is part of every same-seed golden: these values
   were captured before the state moved to unboxed storage and must never
   change. *)
let test_rng_golden () =
  let r = Sim.Rng.create 42L in
  let draws n f = List.init n (fun _ -> f ()) in
  let next () = Sim.Rng.next r in
  Alcotest.(check (list int64))
    "next"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    (draws 3 next);
  let int () = Sim.Rng.int r 1_000_000 in
  Alcotest.(check (list int)) "int" [ 867860; 963250; 825350 ] (draws 3 int);
  let float () = Sim.Rng.float r in
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ]
    (draws 3 float);
  let exp () = Sim.Rng.exponential r 100.0 in
  Alcotest.(check (list (float 0.)))
    "exponential"
    [ 0x1.8063c12cb7dc8p+5; 0x1.3d0b7bbb97f1cp+7 ]
    (draws 2 exp);
  let s = Sim.Rng.split r in
  Alcotest.(check int64) "split child" (-369981776645749888L) (Sim.Rng.next s);
  Alcotest.(check int64) "split parent" (-8976257307478440218L) (Sim.Rng.next r)

(* {2 Event queue} *)

let test_event_queue_ordering () =
  let q = Sim.Timing_wheel.create () in
  let rng = Sim.Rng.create 8L in
  for i = 0 to 999 do
    Sim.Timing_wheel.push q (Sim.Rng.int rng 10_000) i 0
  done;
  check_int "length" 1_000 (Sim.Timing_wheel.length q);
  let last = ref min_int in
  for _ = 1 to 1_000 do
    match Sim.Timing_wheel.pop q with
    | None -> Alcotest.fail "queue exhausted early"
    | Some (t, _) ->
        check_bool "non-decreasing" true (t >= !last);
        last := t
  done;
  check_int "empty at end" 0 (Sim.Timing_wheel.length q)

let test_event_queue_fifo_ties () =
  let q = Sim.Timing_wheel.create () in
  for i = 0 to 99 do
    Sim.Timing_wheel.push q 42 i 0
  done;
  for i = 0 to 99 do
    match Sim.Timing_wheel.pop q with
    | Some (42, v) -> check_int "insertion order among ties" i v
    | _ -> Alcotest.fail "wrong pop"
  done

let test_event_queue_interleaved () =
  (* Property: popping after interleaved pushes still yields sorted order. *)
  let prop =
    QCheck2.Test.make ~name:"event_queue sorted under interleaving" ~count:200
      QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 1_000_000))
      (fun times ->
        let q = Sim.Timing_wheel.create () in
        let popped = ref [] in
        List.iteri
          (fun i t ->
            Sim.Timing_wheel.push q t i 0;
            if i mod 3 = 2 then
              match Sim.Timing_wheel.pop q with
              | Some (t, _) -> popped := t :: !popped
              | None -> ())
          times;
        let rec drain () =
          match Sim.Timing_wheel.pop q with
          | Some (t, _) ->
              popped := t :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        (* Each drain segment is sorted relative to elements popped later
           than it... the global guarantee: every popped time >= any time
           popped before it from the same queue state. Weak check: the
           total multiset is preserved. *)
        List.sort compare !popped = List.sort compare times)
  in
  QCheck_alcotest.to_alcotest prop

(* {2 Engine} *)

let test_engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e 30 (fun () -> log := 30 :: !log);
  Sim.Engine.schedule e 10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule e 20 (fun () -> log := 20 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now e)

let test_engine_schedule_past_raises () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e 100 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule: time 50 ns is before now 100 ns") (fun () ->
      Sim.Engine.schedule e 50 (fun () -> ()))

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter (fun t -> Sim.Engine.schedule e t (fun () -> fired := t :: !fired)) [ 10; 20; 30; 40 ];
  Sim.Engine.run_until e 25;
  Alcotest.(check (list int)) "fired up to horizon" [ 10; 20 ] (List.rev !fired);
  check_int "clock at horizon" 25 (Sim.Engine.now e);
  Sim.Engine.run_until e 100;
  Alcotest.(check (list int)) "rest fired" [ 10; 20; 30; 40 ] (List.rev !fired)

let test_engine_cascading_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Sim.Engine.schedule_after e 5 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10;
  Sim.Engine.run e;
  check_int "all chained events" 10 !count;
  check_int "clock" 50 (Sim.Engine.now e)

(* {2 Timer} *)

let test_timer_fires_once () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  check_int "fired once" 1 !fired;
  check_bool "disarmed after fire" false (Sim.Timer.is_armed t)

let test_timer_rearm_replaces () =
  let e = Sim.Engine.create () in
  let fired_at = ref [] in
  let t = Sim.Timer.create e ~callback:(fun () -> fired_at := Sim.Engine.now e :: !fired_at) in
  Sim.Timer.arm t 100;
  Sim.Timer.arm t 200;
  (* re-arm replaces *)
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires only at new deadline" [ 200 ] !fired_at

let test_timer_disarm () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.disarm t;
  Sim.Engine.run e;
  check_int "never fires" 0 !fired

let test_timer_disarm_then_rearm () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.disarm t;
  Sim.Timer.arm_after t 300;
  Sim.Engine.run e;
  check_int "fires once after rearm" 1 !fired;
  check_int "at rearmed deadline" 300 (Sim.Engine.now e)

let test_timer_deadline () =
  let e = Sim.Engine.create () in
  let t = Sim.Timer.create e ~callback:(fun () -> ()) in
  Sim.Timer.arm t 123;
  check_int "deadline" 123 (Sim.Timer.deadline t);
  Sim.Timer.disarm t;
  Alcotest.check_raises "deadline of unarmed" (Invalid_argument "Timer.deadline: timer not armed")
    (fun () -> ignore (Sim.Timer.deadline t))

let test_timer_arm_past_raises () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Engine.schedule e 100 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past arm" (Invalid_argument "Timer.arm: time 50 ns is before now 100 ns")
    (fun () -> Sim.Timer.arm t 50);
  check_bool "still unarmed" false (Sim.Timer.is_armed t);
  Sim.Timer.arm t 150;
  Sim.Engine.run e;
  check_int "later arm still fires" 1 !fired

(* The RTO pattern: every re-arm moves the deadline later. The timer keeps
   a single queued event and fires once, at the last deadline. *)
let test_timer_lazy_rearm_one_event () =
  let e = Sim.Engine.create () in
  let fired_at = ref [] in
  let t = Sim.Timer.create e ~callback:(fun () -> fired_at := Sim.Engine.now e :: !fired_at) in
  for i = 0 to 99 do
    Sim.Engine.schedule e (i * 10) (fun () ->
        Sim.Timer.arm_after t 5_000;
        check_int "one queued event" 1 (Sim.Timer.queued t);
        if i mod 7 = 3 then Sim.Timer.disarm t)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires once at the last deadline" [ 5_990 ] !fired_at;
  check_int "queue drained" 0 (Sim.Timer.queued t);
  check_int "one event per arm interval, not per arm" 102 (Sim.Engine.events_processed e)

(* Model test: the lazy timer against a generation-per-arm oracle that
   queues one event per arm and ignores the stale ones. Random arm /
   arm_after / disarm scripts over several timers, with earlier-deadline
   re-arms, same-instant re-arms, re-arms made from inside callbacks, and
   unrelated events at colliding timestamps, must produce the same global
   [(time, tag)] execution log. *)

module Ref_timer = struct
  type t = {
    engine : Sim.Engine.t;
    callback : unit -> unit;
    mutable generation : int;
    mutable armed : bool;
  }

  let create engine ~callback = { engine; callback; generation = 0; armed = false }

  let arm t at =
    t.generation <- t.generation + 1;
    t.armed <- true;
    let gen = t.generation in
    Sim.Engine.schedule t.engine at (fun () ->
        if t.armed && t.generation = gen then begin
          t.armed <- false;
          t.callback ()
        end)

  let disarm t =
    t.armed <- false;
    t.generation <- t.generation + 1
end

type timer_op =
  | Arm of int * int (* timer, deadline - now *)
  | Arm_after of int * int
  | Disarm of int
  | Noise of int * int (* tag, delay of an unrelated event *)

let n_model_timers = 3

(* [actions]: op batches run by unrelated events at fixed times.
   [reactions.(k)]: op batches run from inside timer [k]'s callback, the
   i-th batch on its i-th fire. *)
let timer_script_gen =
  let open QCheck2.Gen in
  let timer = int_range 0 (n_model_timers - 1) and delay = int_range 0 40 in
  let op =
    frequency
      [
        (3, map2 (fun k d -> Arm (k, d)) timer delay);
        (2, map2 (fun k d -> Arm_after (k, d)) timer delay);
        (1, map (fun k -> Disarm k) timer);
        (2, map2 (fun tag d -> Noise (tag, d)) (int_range 0 999) delay);
      ]
  in
  let batch = list_size (int_range 1 4) op in
  pair
    (list_size (int_range 1 25) (pair (int_range 0 60) batch))
    (array_repeat n_model_timers (list_size (int_range 0 3) (list_size (int_range 0 2) op)))

(* Run a script and return its execution log. With [~lazy_:true] the
   timers are [Sim.Timer]s and every logged event also checks the queue
   bound: a timer holds at most one event, plus one per re-arm to an
   earlier deadline made since its queue was last empty. *)
let run_timer_script ~lazy_ (actions, reactions) =
  let e = Sim.Engine.create ~seed:1L () in
  let log = ref [] in
  let bound_ok = ref true in
  let lazy_timers = ref [||] in
  let lowered = Array.make n_model_timers 0 in
  let last_deadline = Array.make n_model_timers max_int in
  let check_bound () =
    Array.iteri
      (fun k t -> if Sim.Timer.queued t > 1 + lowered.(k) then bound_ok := false)
      !lazy_timers
  in
  let record tag =
    log := (Sim.Engine.now e, tag) :: !log;
    check_bound ()
  in
  let exec = ref (fun _ -> ()) in
  let fires = Array.make n_model_timers 0 in
  let callback k () =
    record (Printf.sprintf "timer %d" k);
    let i = fires.(k) in
    fires.(k) <- i + 1;
    match List.nth_opt reactions.(k) i with Some ops -> List.iter !exec ops | None -> ()
  in
  let arm, arm_after, disarm =
    if lazy_ then begin
      let ts = Array.init n_model_timers (fun k -> Sim.Timer.create e ~callback:(callback k)) in
      lazy_timers := ts;
      let note_arm k at =
        if Sim.Timer.queued ts.(k) = 0 then lowered.(k) <- 0;
        if at < last_deadline.(k) then lowered.(k) <- lowered.(k) + 1;
        last_deadline.(k) <- at
      in
      ( (fun k at ->
          note_arm k at;
          Sim.Timer.arm ts.(k) at),
        (fun k d ->
          note_arm k (Sim.Engine.now e + d);
          Sim.Timer.arm_after ts.(k) d),
        fun k -> Sim.Timer.disarm ts.(k) )
    end
    else begin
      let ts = Array.init n_model_timers (fun k -> Ref_timer.create e ~callback:(callback k)) in
      ( (fun k at -> Ref_timer.arm ts.(k) at),
        (fun k d -> Ref_timer.arm ts.(k) (Sim.Engine.now e + d)),
        fun k -> Ref_timer.disarm ts.(k) )
    end
  in
  (exec :=
     function
     | Arm (k, d) -> arm k (Sim.Engine.now e + d)
     | Arm_after (k, d) -> arm_after k d
     | Disarm k -> disarm k
     | Noise (tag, d) ->
         Sim.Engine.schedule_after e d (fun () -> record (Printf.sprintf "noise %d" tag)));
  List.iteri
    (fun i (at, ops) ->
      Sim.Engine.schedule e at (fun () ->
          record (Printf.sprintf "action %d" i);
          List.iter !exec ops))
    actions;
  Sim.Engine.run e;
  let drained = Array.for_all (fun t -> Sim.Timer.queued t = 0) !lazy_timers in
  (List.rev !log, !bound_ok && drained)

let test_timer_model_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lazy timer matches generation-per-arm oracle" ~count:500
       timer_script_gen (fun script ->
         let expected, _ = run_timer_script ~lazy_:false script in
         let got, bound_ok = run_timer_script ~lazy_:true script in
         got = expected && bound_ok))

(* {2 Cpu} *)

let test_cpu_charges_extend () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  let t1 = Sim.Cpu.charge cpu 100 in
  check_int "first charge ends at 100" 100 t1;
  let t2 = Sim.Cpu.charge cpu 50 in
  check_int "second charge is serialized" 150 t2;
  check_int "busy total" 150 (Sim.Cpu.busy_ns cpu)

let test_cpu_idle_gap () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  ignore (Sim.Cpu.charge cpu 10);
  Sim.Engine.schedule e 1_000 (fun () -> ignore (Sim.Cpu.charge cpu 10));
  Sim.Engine.run e;
  (* Work submitted at t=1000 starts then, not at 20. *)
  check_int "next_free" 1_010 (Sim.Cpu.next_free cpu);
  check_int "busy" 20 (Sim.Cpu.busy_ns cpu)

let test_cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  Sim.Engine.schedule e 1_000 (fun () -> ());
  Sim.Engine.run e;
  ignore (Sim.Cpu.charge cpu 500);
  let u = Sim.Cpu.utilization cpu in
  check_bool (Printf.sprintf "utilization 0.5 got %.2f" u) true (abs_float (u -. 0.5) < 0.01)

let suite =
  [
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
    Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli;
    Alcotest.test_case "rng golden stream" `Quick test_rng_golden;
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_ordering;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    test_event_queue_interleaved ();
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine rejects past" `Quick test_engine_schedule_past_raises;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine cascading" `Quick test_engine_cascading_events;
    Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
    Alcotest.test_case "timer rearm replaces" `Quick test_timer_rearm_replaces;
    Alcotest.test_case "timer disarm" `Quick test_timer_disarm;
    Alcotest.test_case "timer disarm+rearm" `Quick test_timer_disarm_then_rearm;
    Alcotest.test_case "timer deadline" `Quick test_timer_deadline;
    Alcotest.test_case "timer arm in the past" `Quick test_timer_arm_past_raises;
    Alcotest.test_case "timer lazy re-arm" `Quick test_timer_lazy_rearm_one_event;
    test_timer_model_qcheck;
    Alcotest.test_case "cpu charges serialize" `Quick test_cpu_charges_extend;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization;
  ]
