(* Tests for workload generators. *)

let check_bool = Alcotest.(check bool)

let test_uniform_bounds () =
  let g = Workload.Keygen.uniform ~n:100 in
  let rng = Sim.Rng.create 1L in
  for _ = 1 to 10_000 do
    let k = Workload.Keygen.next_at g rng ~now_ns:0 in
    check_bool "bounds" true (k >= 0 && k < 100)
  done

let test_uniform_covers_space () =
  let g = Workload.Keygen.uniform ~n:10 in
  let rng = Sim.Rng.create 2L in
  let seen = Array.make 10 false in
  for _ = 1 to 1_000 do
    seen.(Workload.Keygen.next_at g rng ~now_ns:0) <- true
  done;
  check_bool "all keys seen" true (Array.for_all Fun.id seen)

let test_zipf_bounds () =
  let g = Workload.Keygen.zipf ~n:1_000 ~theta:0.99 in
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let k = Workload.Keygen.next_at g rng ~now_ns:0 in
    check_bool "bounds" true (k >= 0 && k < 1_000)
  done

let test_zipf_is_skewed () =
  let n = 1_000 in
  let g = Workload.Keygen.zipf ~n ~theta:0.99 in
  let rng = Sim.Rng.create 4L in
  let counts = Array.make n 0 in
  let total = 100_000 in
  for _ = 1 to total do
    let k = Workload.Keygen.next_at g rng ~now_ns:0 in
    counts.(k) <- counts.(k) + 1
  done;
  (* YCSB zipf(0.99): the hottest key draws far more than uniform share
     (which would be 100 here). *)
  check_bool
    (Printf.sprintf "hot key %d" counts.(0))
    true
    (counts.(0) > 10 * (total / n));
  (* And the tail is cold. *)
  let tail = Array.fold_left ( + ) 0 (Array.sub counts (n / 2) (n / 2)) in
  check_bool "cold tail" true (tail < total / 4)

let test_encode () =
  Alcotest.(check string) "default width" "0000000000000042" (Workload.Keygen.encode 42);
  Alcotest.(check string) "width 8" "00000042" (Workload.Keygen.encode ~width:8 42);
  Alcotest.(check int) "fixed length" 16 (String.length (Workload.Keygen.encode 123456));
  (* Lexicographic order matches numeric order. *)
  check_bool "order preserved" true
    (String.compare (Workload.Keygen.encode 99) (Workload.Keygen.encode 100) < 0)

let test_encode_overflow () =
  (* Width is a minimum: an id wider than [width] keeps all its digits. *)
  Alcotest.(check string) "no truncation" "123456" (Workload.Keygen.encode ~width:4 123456);
  Alcotest.(check int) "overflow length" 6
    (String.length (Workload.Keygen.encode ~width:4 123456));
  Alcotest.(check string) "exact fit" "1234" (Workload.Keygen.encode ~width:4 1234);
  (* Injective even when ids straddle the width boundary. *)
  let seen = Hashtbl.create 4096 in
  for k = 0 to 9_999 do
    let s = Workload.Keygen.encode ~width:2 k in
    check_bool "distinct" false (Hashtbl.mem seen s);
    Hashtbl.replace seen s ()
  done;
  (* Default width 16 stays fixed-length up to 10^16 - 1; max_int (19
     digits) overflows to its full decimal rendering. *)
  Alcotest.(check int) "big id still 16" 16
    (String.length (Workload.Keygen.encode ((Int.shift_left 1 53) - 1)));
  Alcotest.(check string) "max_int keeps all digits" (string_of_int max_int)
    (Workload.Keygen.encode max_int);
  Alcotest.check_raises "negative id"
    (Invalid_argument "Keygen.encode: negative id") (fun () ->
      ignore (Workload.Keygen.encode (-1)))

(* ---------- statistical fit of the generators ---------- *)

(* Analytic Zipf pmf matching Keygen.zipf's parameterisation: rank 0 is
   hottest, p_i proportional to 1/(i+1)^theta. *)
let zipf_pmf n theta =
  let p = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta) in
  let z = Array.fold_left ( +. ) 0. p in
  Array.map (fun x -> x /. z) p

let test_zipf_matches_analytic_cdf () =
  let n = 400 and theta = 0.99 and draws = 200_000 in
  let g = Workload.Keygen.zipf ~n ~theta in
  let rng = Sim.Rng.create 7L in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Workload.Keygen.next_at g rng ~now_ns:0 in
    counts.(k) <- counts.(k) + 1
  done;
  let pmf = zipf_pmf n theta in
  (* Kolmogorov-Smirnov distance between the empirical CDF and the
     analytic Zipf CDF. The YCSB sampler is itself an approximation
     (exact at ranks 0 and 1, interpolated beyond), so the bound covers
     both sampling noise (~1.95/sqrt(draws) = 0.004 at alpha = 0.001)
     and the approximation error. *)
  let ks = ref 0. and emp = ref 0. and ana = ref 0. in
  for i = 0 to n - 1 do
    emp := !emp +. (float_of_int counts.(i) /. float_of_int draws);
    ana := !ana +. pmf.(i);
    ks := Float.max !ks (Float.abs (!emp -. !ana))
  done;
  check_bool (Printf.sprintf "KS distance %.4f <= 0.02" !ks) true (!ks <= 0.02);
  (* The hottest key's mass matches its analytic share. *)
  let f0 = float_of_int counts.(0) /. float_of_int draws in
  check_bool
    (Printf.sprintf "hot-key mass %.4f vs analytic %.4f" f0 pmf.(0))
    true
    (Float.abs (f0 -. pmf.(0)) <= 0.01)

let walk_arrivals arr ~count =
  let ts = Array.make count 0 in
  let now = ref 0 in
  for i = 0 to count - 1 do
    now := Workload.Arrival.next_after arr ~now_ns:!now;
    ts.(i) <- !now
  done;
  ts

let test_poisson_interarrivals () =
  let rate = 1e6 (* mean gap 1000 ns *) in
  let spec = Workload.Arrival.Poisson { rate_rps = rate } in
  let arr = Workload.Arrival.make spec ~rng:(Sim.Rng.create 11L) in
  let count = 50_000 in
  let ts = walk_arrivals arr ~count in
  let gaps = Array.init (count - 1) (fun i -> ts.(i + 1) - ts.(i)) in
  Array.iter (fun g -> check_bool "strictly increasing" true (g > 0)) gaps;
  let m = 1e9 /. rate in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 gaps) /. float_of_int (Array.length gaps)
  in
  (* Sample mean of exp(1000): stderr = 1000/sqrt(50k) = 4.5 ns; 2% = 20 ns. *)
  check_bool (Printf.sprintf "mean gap %.1f ~ %.1f" mean m) true
    (Float.abs (mean -. m) /. m <= 0.02);
  (* Memorylessness: survival fractions at 1x and 2x the mean match e^-1
     and e^-2 (tolerance ~4.5 sigma of the binomial proportion). *)
  let frac_above x =
    float_of_int (Array.fold_left (fun a g -> if float_of_int g > x then a + 1 else a) 0 gaps)
    /. float_of_int (Array.length gaps)
  in
  check_bool
    (Printf.sprintf "P[gap > mean] = %.4f ~ e^-1" (frac_above m))
    true
    (Float.abs (frac_above m -. exp (-1.)) <= 0.01);
  check_bool
    (Printf.sprintf "P[gap > 2 mean] = %.4f ~ e^-2" (frac_above (2. *. m)))
    true
    (Float.abs (frac_above (2. *. m) -. exp (-2.)) <= 0.01)

let test_on_off_duty_cycle () =
  let rate = 1e6 and on_ns = 40_000 and off_ns = 60_000 in
  let spec = Workload.Arrival.On_off { rate_rps = rate; on_ns; off_ns } in
  let arr = Workload.Arrival.make spec ~rng:(Sim.Rng.create 13L) in
  let count = 100_000 in
  let ts = walk_arrivals arr ~count in
  let period = on_ns + off_ns in
  (* Every arrival lands inside an on-window (never in the silent phase). *)
  Array.iter
    (fun t ->
      check_bool "in on-window" true (t mod period < on_ns);
      check_bool "active_at agrees" true
        (Workload.Arrival.active_at spec ~now_ns:t))
    ts;
  check_bool "off-phase is inactive" false
    (Workload.Arrival.active_at spec ~now_ns:(on_ns + (off_ns / 2)));
  (* Long-run realized rate = rate x duty cycle. *)
  let duty = float_of_int on_ns /. float_of_int period in
  let realized = float_of_int count /. (float_of_int ts.(count - 1) /. 1e9) in
  let expected = rate *. duty in
  check_bool
    (Printf.sprintf "realized %.0f rps ~ %.0f" realized expected)
    true
    (Float.abs (realized -. expected) /. expected <= 0.03);
  check_bool "mean_rate_rps agrees" true
    (Float.abs (Workload.Arrival.mean_rate_rps spec -. expected) <= 1e-6)

let test_ramp_trough_vs_peak () =
  let base = 1e5 and peak = 1e6 and period_ns = 1_000_000 in
  let spec = Workload.Arrival.Ramp { base_rps = base; peak_rps = peak; period_ns } in
  let arr = Workload.Arrival.make spec ~rng:(Sim.Rng.create 17L) in
  let count = 200_000 in
  let ts = walk_arrivals arr ~count in
  (* Bin arrivals by phase decile: the half-period bin (rate = peak) must
     dwarf the phase-0 bin (rate = base); analytic ratio is ~10. *)
  let bins = Array.make 10 0 in
  Array.iter
    (fun t ->
      let phase = t mod period_ns in
      bins.(phase * 10 / period_ns) <- bins.(phase * 10 / period_ns) + 1)
    ts;
  let trough = bins.(0) + bins.(9) and crest = bins.(4) + bins.(5) in
  check_bool
    (Printf.sprintf "crest %d >> trough %d" crest trough)
    true
    (crest > 3 * trough);
  (* Long-run mean is the raised-cosine average (base + peak) / 2. *)
  let realized = float_of_int count /. (float_of_int ts.(count - 1) /. 1e9) in
  let expected = Workload.Arrival.mean_rate_rps spec in
  check_bool
    (Printf.sprintf "realized %.0f rps ~ %.0f" realized expected)
    true
    (Float.abs (realized -. expected) /. expected <= 0.05)

(* ---------- determinism: same seed, same draws ---------- *)

let arrival_specs =
  [
    Workload.Arrival.Poisson { rate_rps = 5e5 };
    Workload.Arrival.On_off { rate_rps = 1e6; on_ns = 3_000; off_ns = 7_000 };
    Workload.Arrival.Ramp { base_rps = 1e5; peak_rps = 8e5; period_ns = 100_000 };
  ]

let prop_arrival_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"same seed => identical arrival sequence" ~count:50
       QCheck2.Gen.(pair (int_range 0 2) (int_bound 1_000_000))
       (fun (which, seed) ->
         let spec = List.nth arrival_specs which in
         let walk () =
           let arr =
             Workload.Arrival.make spec ~rng:(Sim.Rng.create (Int64.of_int seed))
           in
           Array.to_list (walk_arrivals arr ~count:200)
         in
         walk () = walk ()))

let keygens =
  [
    (fun () -> Workload.Keygen.uniform ~n:1024);
    (fun () -> Workload.Keygen.zipf ~n:1024 ~theta:0.99);
    (fun () ->
      Workload.Keygen.hot_shift
        ~base:(Workload.Keygen.zipf ~n:1024 ~theta:0.99)
        ~period_ns:1_000 ~stride:64);
  ]

let prop_keygen_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"same seed => identical key sequence" ~count:50
       QCheck2.Gen.(pair (int_range 0 2) (int_bound 1_000_000))
       (fun (which, seed) ->
         let g = (List.nth keygens which) () in
         let draw () =
           let rng = Sim.Rng.create (Int64.of_int seed) in
           List.init 200 (fun i ->
               Workload.Keygen.next_at g rng ~now_ns:(i * 137))
         in
         draw () = draw ()))

(* ---------- hot-key-shift semantics ---------- *)

let test_hot_shift_rotation () =
  let n = 1024 and stride = 100 and period_ns = 1_000 in
  let base = Workload.Keygen.zipf ~n ~theta:0.99 in
  let hs = Workload.Keygen.hot_shift ~base ~period_ns ~stride in
  Alcotest.(check int) "keyspace preserved" n (Workload.Keygen.space hs);
  (* Epoch e rotates the base draw by exactly e * stride (mod n): verify
     against the base generator driven by an identically seeded rng. *)
  for epoch = 0 to 7 do
    let now_ns = (epoch * period_ns) + (period_ns / 2) in
    let r1 = Sim.Rng.create 23L and r2 = Sim.Rng.create 23L in
    for _ = 1 to 100 do
      let kb = Workload.Keygen.next_at base r1 ~now_ns in
      let kh = Workload.Keygen.next_at hs r2 ~now_ns in
      Alcotest.(check int) "rotated draw" ((kb + (epoch * stride mod n)) mod n) kh
    done
  done;
  (* The hottest observed rank follows the schedule. *)
  let hottest ~now_ns =
    let rng = Sim.Rng.create 29L in
    let counts = Array.make n 0 in
    for _ = 1 to 20_000 do
      let k = Workload.Keygen.next_at hs rng ~now_ns in
      counts.(k) <- counts.(k) + 1
    done;
    let best = ref 0 in
    Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
    !best
  in
  Alcotest.(check int) "epoch 0 hot key" 0 (hottest ~now_ns:0);
  Alcotest.(check int) "epoch 3 hot key" (3 * stride mod n)
    (hottest ~now_ns:(3 * period_ns));
  Alcotest.check_raises "bad period"
    (Invalid_argument "Keygen.hot_shift: period_ns <= 0") (fun () ->
      ignore (Workload.Keygen.hot_shift ~base ~period_ns:0 ~stride:1))

let suite =
  [
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "uniform coverage" `Quick test_uniform_covers_space;
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf skew" `Quick test_zipf_is_skewed;
    Alcotest.test_case "key encoding" `Quick test_encode;
    Alcotest.test_case "key encoding width overflow" `Quick test_encode_overflow;
    Alcotest.test_case "zipf matches analytic CDF" `Quick test_zipf_matches_analytic_cdf;
    Alcotest.test_case "poisson interarrivals" `Quick test_poisson_interarrivals;
    Alcotest.test_case "on-off duty cycle" `Quick test_on_off_duty_cycle;
    Alcotest.test_case "ramp trough vs peak" `Quick test_ramp_trough_vs_peak;
    Alcotest.test_case "hot-key-shift rotation" `Quick test_hot_shift_rotation;
    prop_arrival_deterministic;
    prop_keygen_deterministic;
  ]
