(* Tests for the Carousel timing wheel. Entries are ints. *)

let check_int = Alcotest.(check int)

let test_delivery_order () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:128 in
  Erpc.Wheel.insert w ~now:0 ~at:5_000 3;
  Erpc.Wheel.insert w ~now:0 ~at:1_000 1;
  Erpc.Wheel.insert w ~now:0 ~at:3_000 2;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:10_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "slot order" [ 1; 2; 3 ] (List.rev !got)

let test_poll_only_due () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:128 in
  Erpc.Wheel.insert w ~now:0 ~at:2_000 1;
  Erpc.Wheel.insert w ~now:0 ~at:50_000 2;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:10_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "only due" [ 1 ] !got;
  check_int "one pending" 1 (Erpc.Wheel.pending w);
  ignore (Erpc.Wheel.poll w ~now:60_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "late delivered" [ 2; 1 ] !got

let test_past_entries_fire_next_poll () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:128 in
  ignore (Erpc.Wheel.poll w ~now:20_000 (fun _ -> ()));
  (* Insert for the "past": must still fire on the next poll, never be
     lost. *)
  Erpc.Wheel.insert w ~now:20_000 ~at:5_000 7;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:21_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "stale fired" [ 7 ] !got

let test_horizon_clamp () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:16 in
  (* Horizon is 15 us; an entry 1 second out is clamped, not lost. *)
  Erpc.Wheel.insert w ~now:0 ~at:1_000_000_000 9;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:15_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "clamped entry fired within horizon" [ 9 ] !got

let test_pending_counts () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:64 in
  for i = 1 to 10 do
    Erpc.Wheel.insert w ~now:0 ~at:(i * 1_000) i
  done;
  check_int "pending" 10 (Erpc.Wheel.pending w);
  let n = Erpc.Wheel.poll w ~now:5_000 (fun _ -> ()) in
  check_int "delivered" 5 n;
  check_int "left" 5 (Erpc.Wheel.pending w)

let test_wraparound () =
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:8 in
  let delivered = ref 0 in
  (* Push time far past several wheel revolutions. *)
  for round = 0 to 9 do
    let base = round * 8_000 in
    ignore (Erpc.Wheel.poll w ~now:base (fun _ -> incr delivered));
    Erpc.Wheel.insert w ~now:base ~at:(base + 3_000) round
  done;
  ignore (Erpc.Wheel.poll w ~now:100_000 (fun _ -> incr delivered));
  check_int "all delivered across wraps" 10 !delivered

let test_rollover_no_collision () =
  (* Rollover: an entry inserted one full revolution after another lands in
     the same physical slot. It must fire in its own revolution, not ride
     out with (or shadow) the earlier entry. *)
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:8 in
  Erpc.Wheel.insert w ~now:0 ~at:3_000 10;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:4_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "first revolution only" [ 10 ] !got;
  (* Same physical slot (3 mod 8), next revolution: abs slot 11. *)
  Erpc.Wheel.insert w ~now:4_000 ~at:11_000 11;
  ignore (Erpc.Wheel.poll w ~now:10_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "not early" [ 10 ] !got;
  ignore (Erpc.Wheel.poll w ~now:11_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "fires in its own revolution" [ 11; 10 ] !got;
  check_int "empty" 0 (Erpc.Wheel.pending w)

let test_rollover_insert_at_now () =
  (* An entry due exactly at the cursor's current slot must fire on the
     very next poll, across a slot-index wrap. *)
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:8 in
  ignore (Erpc.Wheel.poll w ~now:15_000 (fun _ -> ()));
  Erpc.Wheel.insert w ~now:16_000 ~at:16_000 5;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:16_000 (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "due-now fired" [ 5 ] !got

let test_rollover_horizon_boundary () =
  (* Insert exactly at the horizon: must clamp into the last distinct slot
     and fire exactly once (never alias slot 0 = "due immediately"... which
     would deliver too early, nor be pushed a revolution out). *)
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:8 in
  let h = 7_000 (* slot_ns * (num_slots - 1) *) in
  Erpc.Wheel.insert w ~now:0 ~at:h 3;
  let got = ref [] in
  ignore (Erpc.Wheel.poll w ~now:(h - 1_000) (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "not before its slot" [] !got;
  ignore (Erpc.Wheel.poll w ~now:h (fun x -> got := x :: !got));
  Alcotest.(check (list int)) "fired at horizon" [ 3 ] !got;
  ignore (Erpc.Wheel.poll w ~now:(h + 8_000) (fun x -> got := x :: !got));
  check_int "no ghost redelivery" 1 (List.length !got)

let test_exactly_once_across_revolutions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel exact-once with advancing cursor (rollover)" ~count:100
       QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 50) (int_range 0 20_000)))
       (fun steps ->
         (* Interleave polls and inserts while time marches far past many
            revolutions of a small wheel. *)
         let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:8 in
         let got = Hashtbl.create 64 in
         let deliver i =
           Hashtbl.replace got i (1 + Option.value ~default:0 (Hashtbl.find_opt got i))
         in
         let now = ref 0 in
         List.iteri
           (fun i (advance, offset) ->
             now := !now + (advance * 1_000);
             ignore (Erpc.Wheel.poll w ~now:!now deliver);
             Erpc.Wheel.insert w ~now:!now ~at:(!now + offset) i)
           steps;
         ignore (Erpc.Wheel.poll w ~now:(!now + 100_000) deliver);
         List.length steps = Hashtbl.length got
         && Hashtbl.fold (fun _ c acc -> acc && c = 1) got true))

let test_exactly_once =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel delivers every entry exactly once" ~count:100
       QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 200_000))
       (fun ats ->
         let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:64 in
         List.iteri (fun i at -> Erpc.Wheel.insert w ~now:0 ~at i) ats;
         let got = Hashtbl.create 64 in
         ignore
           (Erpc.Wheel.poll w ~now:300_000 (fun i ->
                Hashtbl.replace got i (1 + Option.value ~default:0 (Hashtbl.find_opt got i))));
         List.length ats = Hashtbl.length got
         && Hashtbl.fold (fun _ c acc -> acc && c = 1) got true))

(* The heap-ordered wheel against the slot ring it replaces
   ([Wheel_ring]): the same inserts and polls must deliver the same
   sequence, with the same counts and [pending]. The script covers
   inserts in the past and beyond the horizon, many entries per slot,
   time advancing without a poll (a cursor lagging [now]) and inserts made
   from inside the poll callback, as the RPC endpoint's pacer does. *)
type wheel_op = Advance of int | Insert of int | Poll

let wheel_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun d -> Advance d) (int_range 0 20_000));
        (5, map (fun off -> Insert off) (int_range (-30_000) 30_000));
        (2, pure Poll);
      ])

module type WHEEL = sig
  type t

  val create : slot_ns:int -> num_slots:int -> t
  val insert : t -> now:int -> at:int -> int -> unit
  val poll : t -> now:int -> (int -> unit) -> int
  val pending : t -> int
end

let run_script (module W : WHEEL) ops =
  let w = W.create ~slot_ns:1_000 ~num_slots:8 in
  let now = ref 0 and next = ref 0 and log = ref [] in
  let record x = log := x :: !log in
  let deliver x =
    record x;
    (* Every third delivery paces a follow-up from inside the callback,
       some due in the slot being drained. *)
    if x mod 3 = 0 then begin
      incr next;
      W.insert w ~now:!now ~at:(!now + (x mod 5_000) - 2_000) (1_000_000 + !next)
    end
  in
  List.iter
    (function
      | Advance d -> now := !now + d
      | Insert off ->
          incr next;
          W.insert w ~now:!now ~at:(!now + off) !next
      | Poll ->
          let n = W.poll w ~now:!now deliver in
          record (-n);
          record (-1_000 - W.pending w))
    ops;
  let n = W.poll w ~now:(!now + 1_000_000) deliver in
  record (-n);
  (List.rev !log, W.pending w)

let test_matches_slot_ring =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel delivers exactly the slot ring's sequence" ~count:300
       QCheck2.Gen.(list_size (int_range 1 200) wheel_op_gen)
       (fun ops -> run_script (module Erpc.Wheel) ops = run_script (module Wheel_ring) ops))

let test_memory_follows_pending () =
  let slot_ns = Erpc.Config.wheel_slot_ns and num_slots = Erpc.Config.wheel_num_slots in
  let words k =
    let w = Erpc.Wheel.create ~slot_ns ~num_slots in
    for i = 1 to k do
      Erpc.Wheel.insert w ~now:0 ~at:(i * slot_ns) i
    done;
    Obj.reachable_words (Obj.repr w)
  in
  let ring = Wheel_ring.create ~slot_ns ~num_slots in
  Alcotest.(check bool) "the slot ring holds 2 words per slot" true
    (Obj.reachable_words (Obj.repr ring) > 2 * num_slots);
  List.iter
    (fun k ->
      let used = words k in
      if used > 64 + (8 * k) then
        Alcotest.failf "%d pending entries hold %d words, not O(k)" k used)
    [ 0; 1; 10; 100; 1_000 ]

let suite =
  [
    Alcotest.test_case "delivery order" `Quick test_delivery_order;
    Alcotest.test_case "poll only due" `Quick test_poll_only_due;
    Alcotest.test_case "past entries" `Quick test_past_entries_fire_next_poll;
    Alcotest.test_case "horizon clamp" `Quick test_horizon_clamp;
    Alcotest.test_case "pending counts" `Quick test_pending_counts;
    Alcotest.test_case "wraparound" `Quick test_wraparound;
    Alcotest.test_case "rollover: no slot collision" `Quick test_rollover_no_collision;
    Alcotest.test_case "rollover: insert at now" `Quick test_rollover_insert_at_now;
    Alcotest.test_case "rollover: horizon boundary" `Quick test_rollover_horizon_boundary;
    test_exactly_once;
    test_exactly_once_across_revolutions;
    test_matches_slot_ring;
    Alcotest.test_case "memory follows pending entries" `Quick test_memory_follows_pending;
  ]
