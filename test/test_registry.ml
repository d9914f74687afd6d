(* The experiment registry: every erpc_sim entry, parsed from its own
   command line at a tiny size, yields a well-formed envelope whose event
   census sums to its event count and whose digest repeats under --rerun.
   A row the seed does not determine fails --rerun; wall time stays out
   of the digest. *)

module R = Experiments.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Arguments that make each entry finish in well under a second, except
   masstree: it has no size knob and populates its 1M-key tree per run. *)
let tiny =
  [
    ("latency", [ "--samples"; "20" ]);
    ("rate", [ "--nodes"; "2" ]);
    ("bandwidth", [ "--size"; "65536"; "--requests"; "2" ]);
    ("incast", [ "--degree"; "3"; "--measure-ms"; "0.5" ]);
    ("anatomy", [ "--samples"; "4"; "--transport"; "all" ]);
    ("scalability", [ "--nodes"; "4" ]);
    ("raft", [ "--samples"; "20" ]);
    ("masstree", []);
    ("chaos", [ "--seeds"; "2"; "--requests"; "20"; "--jobs"; "2" ]);
    ("kv-chaos", [ "--seeds"; "1" ]);
    ("codec-bench", [ "--iters"; "100"; "--measure-ms"; "0.2" ]);
    ("session-scale", [ "--sessions"; "50"; "--measure-ms"; "0.2" ]);
    ("rdma-scalability", [ "--connections"; "50" ]);
    ( "cluster-load",
      [ "--scenario"; "steady-poisson"; "--scale"; "0.1"; "--horizon-ms"; "5" ] );
    ("shm-bench", [ "--samples"; "2" ]);
  ]

let parse name term args =
  match
    Cmdliner.Cmd.eval_value
      ~argv:(Array.of_list (name :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info name) term)
  with
  | Ok (`Ok p) -> p
  | _ -> Alcotest.failf "%s: cannot parse %s" name (String.concat " " args)

let test_every_entry () =
  check_int "every entry has a tiny size" (List.length tiny)
    (List.length Erpc_cli.entries);
  List.iter
    (fun (Erpc_cli.Entry (e, term)) ->
      let args =
        match List.assoc_opt e.name tiny with
        | Some a -> a
        | None -> Alcotest.failf "%s: no tiny size" e.name
      in
      let r = R.run ~wall_clock:Sys.time ~rerun:true e ~seed:42L (parse e.name term args) in
      Alcotest.(check (list string)) (e.name ^ ": clean, digest repeats") [] r.violations;
      check_bool (e.name ^ ": envelope validates") true
        (Obs.Json.validate (Obs.Json.to_string (R.envelope r)));
      check_int (e.name ^ ": census sums to events") r.events
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.census);
      check_bool (e.name ^ ": has rows") true (r.outcome.rows <> []))
    Erpc_cli.entries

let fake ~rows ~host =
  {
    R.name = "fake";
    doc = "";
    benchmark = "fake";
    unit = "";
    params = (fun () -> []);
    run =
      (fun ~seed:_ () ->
        { R.rows = rows (); report = ""; violations = []; host = host () });
  }

let test_unseeded_row_fails_rerun () =
  let n = ref 0 in
  let e = fake ~rows:(fun () -> incr n; [ Obs.Json.Int !n ]) ~host:(fun () -> []) in
  let r = R.run ~wall_clock:Sys.time ~rerun:true e ~seed:42L () in
  check_bool "rerun reports a violation" true (r.violations <> [])

let test_wall_time_outside_digest () =
  let n = ref 0 in
  let e =
    fake
      ~rows:(fun () -> [ Obs.Json.Int 7 ])
      ~host:(fun () -> incr n; [ ("wall_s", Obs.Json.Float (float_of_int !n)) ])
  in
  let run () = R.run ~wall_clock:Sys.time e ~seed:42L () in
  let a = run () and b = run () in
  check_bool "host sections differ" true (a.outcome.host <> b.outcome.host);
  Alcotest.(check string) "same digest" a.digest b.digest;
  Alcotest.(check (list string)) "rerun passes" []
    (R.run ~wall_clock:Sys.time ~rerun:true e ~seed:42L ()).violations

let suite =
  [
    Alcotest.test_case "every entry: valid envelope, census, digest repeats" `Quick
      test_every_entry;
    Alcotest.test_case "unseeded row fails --rerun" `Quick test_unseeded_row_fails_rerun;
    Alcotest.test_case "wall time outside the digest" `Quick test_wall_time_outside_digest;
  ]
