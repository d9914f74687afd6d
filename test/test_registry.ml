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
    ("paper", [ "table2" ]);
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

(* Parse [args] with the named entry's own term and run it once. *)
let run_entry name args =
  match List.find (fun (Erpc_cli.Entry (e, _)) -> e.name = name) Erpc_cli.entries with
  | Erpc_cli.Entry (e, term) ->
      (R.run ~wall_clock:Sys.time e ~seed:42L (parse name term args)).outcome.rows

let field row k =
  match row with
  | Obs.Json.Obj f -> (
      match List.assoc_opt k f with
      | Some v -> v
      | None -> Alcotest.failf "row has no field %s" k)
  | _ -> Alcotest.fail "row is not an object"

let float_field row k =
  match field row k with
  | Obs.Json.Float f -> f
  | _ -> Alcotest.failf "field %s is not a float" k

(* Two paper tables at seed 42, to the precision their reports print. *)
let test_paper_pinned () =
  let one_decimal row k = Printf.sprintf "%.1f" (float_field row k) in
  let pairs rows key a b =
    List.map (fun r -> (key r, one_decimal r a ^ " / " ^ one_decimal r b)) rows
  in
  let str_field k r = match field r k with Obs.Json.Str s -> s | _ -> "?" in
  Alcotest.(check (list (pair string string)))
    "Table 2: RDMA read / eRPC median (us)"
    [ ("CX3", "1.7 / 2.2"); ("CX4", "2.9 / 3.7"); ("CX5", "2.0 / 2.3") ]
    (pairs (run_entry "paper" [ "table2" ]) (str_field "cluster") "rdma_read_us" "erpc_us");
  let fig6 = run_entry "paper" [ "fig6" ] in
  let row32k =
    List.find (fun r -> field r "req_size" = Obs.Json.Int 32768) fig6
  in
  Alcotest.(check string)
    "Figure 6, 32 kB: eRPC / RDMA write (Gbps)" "41.9 / 56.8"
    (one_decimal row32k "erpc_gbps" ^ " / " ^ one_decimal row32k "rdma_write_gbps");
  check_int "Figure 6: eight sizes" 8 (List.length fig6)

let test_table_blocks () =
  let open Obs.Json in
  let t = Str "T" in
  Alcotest.(check string)
    "one header per run of same-field rows, title once, null as -"
    "\n==== T ====\nname  gbps\nab    1.50\nc     -\nloss\n1e-04\n"
    (R.table
       [
         Obj [ ("table", t); ("name", Str "ab"); ("gbps", Float 1.5) ];
         Obj [ ("table", t); ("name", Str "c"); ("gbps", Null) ];
         Obj [ ("table", t); ("loss", Float 1e-4) ];
       ])

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
    Alcotest.test_case "paper table2 and fig6 keep their numbers" `Quick test_paper_pinned;
    Alcotest.test_case "table printer: blocks, titles, nulls" `Quick test_table_blocks;
    Alcotest.test_case "unseeded row fails --rerun" `Quick test_unseeded_row_fails_rerun;
    Alcotest.test_case "wall time outside the digest" `Quick test_wall_time_outside_digest;
  ]
