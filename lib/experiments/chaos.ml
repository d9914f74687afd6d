type run_result = {
  seed : int64;
  issued : int;
  ok : int;
  failed : int;
  injected : int;
  fault_kinds : int;
  retransmits : int;
  session_resets : int;
  rx_corrupt : int;
  violations : string list;
  trace : string;
  events : int;
}

let topology_tors (cluster : Transport.Cluster.t) =
  match cluster.net_config.topology with
  | Netsim.Network.Two_tier { tors; _ } -> tors
  | Netsim.Network.Single_switch _ -> 1

(* Draw a schedule that actually mixes fault kinds: a handful of events
   over nine kinds occasionally collapses onto two or three, which would
   leave recovery paths untested. The retry is a deterministic function of
   the seed, so reruns stay reproducible. *)
let pick_schedule ~seed ~horizon_ns ~events ~hosts ~tors =
  let rec go s tries =
    let sched = Faults.Schedule.random ~seed:s ~horizon_ns ~events ~hosts ~tors in
    if Faults.Schedule.num_kinds sched >= 4 || tries = 0 then sched
    else go (Int64.add s 1_000_003L) (tries - 1)
  in
  go seed 100

let run_one ?(hosts = 10) ?(events = 12) ?(requests = 120) ?(horizon_ns = 60_000_000) ~seed
    () =
  let cluster = Transport.Cluster.cx4 ~nodes:hosts () in
  let d =
    Harness.deploy ~seed cluster ~threads_per_host:1 ~register:(fun nx ->
        Harness.register_echo nx)
  in
  let engine = Erpc.Fabric.engine d.fabric in
  let trace = Faults.Trace.create () in
  let injector = Faults.Injector.create ~trace d.fabric in
  (* Two client sessions per host — a rack neighbour and a cross-rack peer,
     so partitions and crashes both land on live traffic. Connect before
     any fault fires: handshake loss is Test_erpc_failure territory; here
     we chaos-test the data plane. *)
  let sessions =
    Array.init hosts (fun h ->
        let rpc = d.rpcs.(h).(0) in
        [|
          Harness.connect d rpc ~remote_host:((h + 1) mod hosts) ~remote_rpc_id:0;
          Harness.connect d rpc ~remote_host:((h + (hosts / 2)) mod hosts) ~remote_rpc_id:0;
        |])
  in
  let schedule =
    pick_schedule ~seed ~horizon_ns ~events ~hosts ~tors:(topology_tors cluster)
  in
  Faults.Injector.install injector schedule;
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Request [j] carries [j], and its response must echo it back intact.
     Buffers are fresh: a reset session's packets may still be in flight
     towards old ones. Only a request's first completion reaches the
     driver; the invariants below count them all. *)
  let completions = Array.make requests 0 in
  let send (op : Obs.Op.t) k =
    let j = op.id and h = op.id mod hosts in
    let req = Erpc.Msgbuf.alloc ~max_size:32 and resp = Erpc.Msgbuf.alloc ~max_size:32 in
    Erpc.Msgbuf.set_u32 req ~off:0 j;
    Erpc.Rpc.enqueue_request d.rpcs.(h).(0)
      sessions.(h).(j / hosts mod 2)
      ~req_type:Harness.echo_req_type ~req ~resp
      ~cont:(fun r ->
        completions.(j) <- completions.(j) + 1;
        if r = Ok () && Erpc.Msgbuf.get_u32 resp ~off:0 <> j then
          violate "req %d: response payload mismatch" j;
        if completions.(j) = 1 then k (Harness.ok_or_failed r);
        Faults.Trace.record trace
          ~at_ns:(Sim.Engine.now engine)
          (Printf.sprintf "done req=%d %s" j
             (match r with Ok () -> "ok" | Error e -> "err:" ^ Erpc.Err.to_string e)))
  in
  (* Stagger issuance across the fault window so requests meet every phase
     of the schedule; a slot per request, so none is shed. *)
  let gap_ns = Stdlib.max 1 (horizon_ns * 3 / 4 / Stdlib.max 1 requests) in
  let drv =
    Harness.driver ~engine ~slots:(Stdlib.max 1 requests)
      (Open [| Every { gap_ns; count = requests } |])
      send
  in
  Harness.start_driver drv;
  (* Quiesce: drain the event queue completely. Terminates because
     retransmission is bounded — before bounded retx, a crashed peer meant
     retransmitting forever. *)
  Sim.Engine.run engine;
  (* {2 Invariants} *)
  List.iter (violate "netsim: %s") (Netsim.Network.audit (Erpc.Fabric.net d.fabric));
  Array.iteri
    (fun j n -> if n <> 1 then violate "req %d completed %d times (want exactly 1)" j n)
    completions;
  let { Harness.ok; failed; _ } = Harness.driver_tally drv in
  let all_rpcs = Array.to_list d.rpcs |> List.concat_map Array.to_list in
  let armed = List.fold_left (fun acc r -> acc + Erpc.Rpc.armed_rto_count r) 0 all_rpcs in
  if armed <> 0 then violate "%d armed RTO timers leaked after quiesce" armed;
  Array.iter
    (Array.iter (fun (sess : Erpc.Session.session) ->
         if sess.credits <> sess.credit_limit then
           violate "session sn=%d: credits %d <> limit %d (leak)" sess.sn sess.credits
             sess.credit_limit))
    sessions;
  let stat = Harness.sum_stats d in
  let handled = stat (fun s -> s.Erpc.Rpc_stats.handled) in
  if handled > requests then
    violate "handlers ran %d times for %d requests (at-most-once broken)" handled requests;
  let retransmits = stat (fun s -> s.Erpc.Rpc_stats.retransmits) in
  let session_resets = stat (fun s -> s.Erpc.Rpc_stats.session_resets) in
  let rx_corrupt = stat (fun s -> s.Erpc.Rpc_stats.rx_corrupt) in
  Faults.Trace.record trace
    ~at_ns:(Sim.Engine.now engine)
    (Printf.sprintf "quiesce ok=%d failed=%d retx=%d resets=%d corrupt=%d" ok failed
       retransmits session_resets rx_corrupt);
  {
    seed;
    issued = requests;
    ok;
    failed;
    injected = Faults.Injector.injected injector;
    fault_kinds = Faults.Schedule.num_kinds schedule;
    retransmits;
    session_resets;
    rx_corrupt;
    violations = List.rev !violations;
    trace = Faults.Trace.to_string trace;
    events = Sim.Engine.events_processed engine;
  }

(* Each seed is a self-contained run (own cluster, engine and trace), so
   the suite fans out across domains under [~jobs]; results come back in
   seed order, making the report independent of [jobs]. *)
let run_suite ?(seed = 42L) ?(seeds = 20) ?hosts ?events ?requests ?horizon_ns ?jobs () =
  Par_sweep.list ?jobs seeds (fun i ->
      let seed = Int64.add (Int64.sub seed 42L) (Int64.of_int (1_000 + (7_919 * i))) in
      run_one ?hosts ?events ?requests ?horizon_ns ~seed ())

let pp_run fmt r =
  Format.fprintf fmt
    "seed=%Ld issued=%d ok=%d failed=%d faults=%d kinds=%d retx=%d resets=%d corrupt=%d %s"
    r.seed r.issued r.ok r.failed r.injected r.fault_kinds r.retransmits r.session_resets
    r.rx_corrupt
    (if r.violations = [] then "PASS"
     else "VIOLATIONS: " ^ String.concat "; " r.violations)
