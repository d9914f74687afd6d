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
    ("chaos", [ "--seeds"; "2"; "--jobs"; "2" ]);
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
        (Json_check.validate (Obs.Json.to_string (R.envelope r)));
      check_int (e.name ^ ": census sums to events") r.events
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.census);
      check_bool (e.name ^ ": has rows") true (r.outcome.rows <> []))
    Erpc_cli.entries

let find name = List.find (fun (Erpc_cli.Entry (e, _)) -> e.name = name) Erpc_cli.entries

(* Parse [args] with the named entry's own term and run it once. *)
let run_entry name args =
  match find name with
  | Erpc_cli.Entry (e, term) ->
      (R.run ~wall_clock:Sys.time e ~seed:42L (parse name term args)).outcome.rows

(* Every entry's envelope params on its tiny arguments: each flag's value
   under its name with - replaced by _. Beside the hand-written lists these
   replaced, only incast's warmup_ms and rate's measure_ms are new; they
   hold the defaults those runs always used. *)
let tiny_params =
  [
    ("latency", {|{"cluster":"cx5","nodes":null,"samples":20}|});
    ("rate", {|{"cluster":"cx4","nodes":2,"batch":3,"window":60,"fasst":false,"measure_ms":4}|});
    ("bandwidth", {|{"size":65536,"credits":32,"loss":0,"requests":2}|});
    ("incast", {|{"degree":3,"credits":32,"cc":true,"warmup_ms":20,"measure_ms":0.5}|});
    ( "anatomy",
      {|{"samples":4,"size":32,"typed":false,"backend":"compact","transport":"all"}|} );
    ("scalability", {|{"nodes":4,"threads":1}|});
    ("raft", {|{"samples":20}|});
    ("masstree", {|{"workers":true}|});
    ("chaos", {|{"seeds":2,"jobs":2}|});
    ("kv-chaos", {|{"seeds":1,"jobs":1}|});
    ("codec-bench", {|{"iters":100,"measure_ms":0.2}|});
    ("session-scale", {|{"sessions":50,"sweep":false,"measure_ms":0.2,"window":64}|});
    ("rdma-scalability", {|{"connections":50}|});
    ("cluster-load", {|{"scenario":"steady-poisson","scale":0.1,"horizon_ms":5,"jobs":1}|});
    ("shm-bench", {|{"samples":2}|});
    ("paper", {|{"section":"table2"}|});
  ]

let params_json name args =
  match find name with
  | Erpc_cli.Entry (e, term) ->
      Obs.Json.to_string (Obs.Json.Obj (e.params (parse name term args)))

let test_params () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ ": params") expected
        (params_json name (List.assoc name tiny)))
    tiny_params;
  (* Flags that only shape the report are not recorded. *)
  Alcotest.(check string) "chaos --trace: not a param"
    {|{"seeds":2,"jobs":1}|}
    (params_json "chaos" [ "--seeds"; "2"; "--trace" ]);
  Alcotest.(check string) "incast --trace-out: not a param"
    {|{"degree":20,"credits":32,"cc":true,"warmup_ms":20,"measure_ms":30}|}
    (params_json "incast" [ "--trace-out"; "t.json" ])

(* Small traced runs of the four traceable entries. *)
let traced =
  [
    ("incast", [ "--degree"; "3"; "--warmup-ms"; "0.5"; "--measure-ms"; "0.5" ]);
    ("rate", [ "--nodes"; "2"; "--measure-ms"; "0.1" ]);
    ("bandwidth", [ "--size"; "65536"; "--requests"; "2" ]);
    ("anatomy", [ "--samples"; "4"; "--transport"; "shm" ]);
  ]

(* Whether [line] holds a timestamp: every trace event does, the
   process and thread name records do not. *)
let has_ts line =
  let k = {|"ts":|} in
  let rec at i j = j = String.length k || (line.[i + j] = k.[j] && at i (j + 1)) in
  let rec go i = i + String.length k <= String.length line && (at i 0 || go (i + 1)) in
  go 0

(* --trace-out only observes: same digest, census and params as the
   untraced run. The file it writes is one well-formed JSON value holding
   every event the report counts, and none was evicted. *)
let test_trace_out () =
  List.iter
    (fun (name, args) ->
      match find name with
      | Erpc_cli.Entry (e, term) ->
          let file = Filename.temp_file "erpc_trace" ".json" in
          let run args = R.run ~wall_clock:Sys.time e ~seed:42L (parse name term args) in
          let plain = run args and traced = run (args @ [ "--trace-out"; file ]) in
          let written = In_channel.with_open_bin file In_channel.input_all in
          Sys.remove file;
          Alcotest.(check string) (name ^ ": digest") plain.digest traced.digest;
          Alcotest.(check (list (pair string int))) (name ^ ": census") plain.census traced.census;
          check_bool (name ^ ": same params") true (plain.params = traced.params);
          let events =
            List.length (List.filter has_ts (String.split_on_char '\n' written))
          in
          check_bool (name ^ ": trace has events") true (events > 0);
          check_bool (name ^ ": report counts them") true
            (String.ends_with
               ~suffix:(Printf.sprintf ": %d trace events, 0 evicted\n" events)
               traced.outcome.report);
          check_bool (name ^ ": trace validates") true (Json_check.validate written))
    traced

let refused name args =
  match find name with
  | Erpc_cli.Entry (_, term) -> (
      let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
      match
        Cmdliner.Cmd.eval_value ~err:quiet
          ~argv:(Array.of_list (name :: args))
          (Cmdliner.Cmd.v (Cmdliner.Cmd.info name) term)
      with
      | Ok (`Ok _) -> false
      | _ -> true)

let test_trace_out_refused () =
  check_bool "anatomy --transport all --trace-out" true
    (refused "anatomy" [ "--transport"; "all"; "--trace-out"; "t.json" ]);
  check_bool "rate --fasst --trace-out" true
    (refused "rate" [ "--fasst"; "--trace-out"; "t.json" ]);
  check_bool "anatomy --transport shm --trace-out parses" false
    (refused "anatomy" [ "--transport"; "shm"; "--trace-out"; "t.json" ])

(* The minor-words counter is the calling domain's: with --jobs 2 the
   other domain's allocations are not in it, so the envelope writes null
   rather than a ratio that falls as --jobs grows. *)
let test_minor_words_jobs () =
  let chaos jobs =
    match find "chaos" with
    | Erpc_cli.Entry (e, term) ->
        R.run ~wall_clock:Sys.time e ~seed:42L
          (parse "chaos" term [ "--seeds"; "2"; "--jobs"; jobs ])
  in
  let one = chaos "1" and two = chaos "2" in
  Alcotest.(check string) "same digest" one.digest two.digest;
  check_int "same events" one.events two.events;
  check_bool "--jobs 1: a ratio" true (Option.is_some one.minor_words_per_event);
  check_bool "--jobs 2: none" true (two.minor_words_per_event = None);
  match R.envelope two with
  | Obs.Json.Obj fields ->
      check_bool "--jobs 2: written null" true
        (List.assoc "minor_words_per_event" fields = Obs.Json.Null)
  | _ -> Alcotest.fail "envelope is not an object"

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
    Alcotest.test_case "every entry: params are its recorded flags" `Quick test_params;
    Alcotest.test_case "--trace-out: same digest and census, valid file" `Quick test_trace_out;
    Alcotest.test_case "--trace-out refused on anatomy all and rate --fasst" `Quick
      test_trace_out_refused;
    Alcotest.test_case "minor words per event: null with --jobs 2" `Quick
      test_minor_words_jobs;
    Alcotest.test_case "paper table2 and fig6 keep their numbers" `Quick test_paper_pinned;
    Alcotest.test_case "table printer: blocks, titles, nulls" `Quick test_table_blocks;
    Alcotest.test_case "unseeded row fails --rerun" `Quick test_unseeded_row_fails_rerun;
    Alcotest.test_case "wall time outside the digest" `Quick test_wall_time_outside_digest;
  ]
