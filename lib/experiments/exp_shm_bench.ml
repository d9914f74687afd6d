(* Serialize-vs-share shared-memory benchmark ([erpc_sim shm-bench]).

   Two endpoints colocated on one machine exchange echo RPCs over the
   {!Shm} rings, sweeping payload size under each handoff discipline
   (Serialize / Share / Auto). Per cell we report the mean end-to-end
   latency and its anatomy components — NIC/wire/switch must be exactly
   zero since nothing touches the fabric — plus the endpoint's
   shared/serialized counters, so the Auto rows exhibit the crossover:
   below it every message is copied, above it handed off by pointer.

   The crossover is also derived analytically from the cost model (the
   smallest payload whose flat share cost undercuts the per-byte copy),
   and the measured Auto rows must agree with it cell by cell. The sweep
   runs on a 4096 B MTU profile so payloads straddling the ~1 KB
   crossover stay single-packet (the share decision is per packet). *)

type row = {
  payload : int;
  mode : string;
  rpcs : int;  (** breakdowns analyzed (single-packet round trips) *)
  mean_ns : float;  (** mean end-to-end latency *)
  ring_ns : float;  (** mean ring/guard component *)
  nic_ns : float;
  wire_ns : float;
  switch_ns : float;
  shared_tx : int;  (** client messages handed off by pointer *)
  serialized_tx : int;  (** client messages copied into the ring *)
  guard_faults : int;
  digest : string;  (** trace digest of this cell's run *)
}

type result = {
  rows : row list;
  crossover_payload : int;
      (** smallest payload where the cost model prefers sharing *)
  measured_crossover : int option;
      (** smallest swept payload whose Auto cell actually shared *)
  violations : string list;
}

let payloads = [ 64; 256; 512; 1024; 1536; 2048; 4096 ]
let modes = [ (Shm.Serialize, "serialize"); (Shm.Share, "share"); (Shm.Auto, "auto") ]

(* Mirror of the Auto decision in [Shm.shm_tx]: share iff the flat
   descriptor + guard cost does not exceed the modeled copy. *)
let model_crossover cost =
  let costs = Erpc.Cost_model.shm_costs cost in
  let share = costs.Shm.share_tx_ns + costs.Shm.share_rx_ns in
  let rec find b =
    if b > 1 lsl 20 then max_int
    else if share <= costs.Shm.serialize_ns b then b
    else find (b + 1)
  in
  find 1

let run_cell ~seed ~samples ~payload ~(mode : Shm.mode) ~mode_name () =
  let cluster =
    Transport.Cluster.colocate (Transport.Cluster.cx3 ~nodes:2 ()) [ [ 0; 1 ] ]
  in
  let config =
    { (Erpc.Config.of_cluster cluster) with shm_mode = mode }
  in
  let trace = Obs.Trace.create ~capacity:(1 lsl 15) () in
  let d =
    Harness.deploy ~seed ~config ~trace cluster ~threads_per_host:1
      ~register:(fun nx -> Harness.register_echo nx)
  in
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  Harness.start_driver
    (Harness.make_driver
       ~payload:(Harness.Echo { req_size = payload; resp_size = payload })
       ~count:samples ~rpc:client ~sessions:[| sess |] ~window:1 ());
  Harness.run_ms d (1.0 +. (0.01 *. float_of_int samples));
  let wire_ns = Exp_anatomy.predictor cluster in
  let breakdowns = Obs.Anatomy.analyze ~wire_ns (Obs.Trace.events trace) in
  let n = List.length breakdowns in
  let mean f =
    if n = 0 then 0.
    else
      float_of_int (List.fold_left (fun acc b -> acc + f b) 0 breakdowns)
      /. float_of_int n
  in
  let s =
    match Erpc.Rpc.shm_endpoint client with
    | Some ep -> Shm.stats ep
    | None -> failwith "shm-bench: shm endpoint missing"
  in
  {
    payload;
    mode = mode_name;
    rpcs = n;
    mean_ns = mean (fun (b : Obs.Anatomy.breakdown) -> b.total_ns);
    ring_ns = mean (fun b -> b.ring_ns);
    nic_ns = mean (fun b -> b.nic_ns);
    wire_ns = mean (fun b -> b.wire_ns);
    switch_ns = mean (fun b -> b.switch_ns);
    shared_tx = s.shared_tx;
    serialized_tx = s.serialized_tx;
    guard_faults = s.guard_faults;
    digest = Obs.Trace.digest trace;
  }

(* Every cell keeps the intra-host anatomy and its mode's handoff, and the
   sweep straddles the crossover: some Auto cells copy, some share. *)
let check ~crossover rows =
  List.concat_map
    (fun r ->
      let e cond msg = if cond then [] else [ Printf.sprintf "%s/%d: %s" r.mode r.payload msg ] in
      e (r.rpcs > 0) "no breakdowns analyzed"
      @ e (r.nic_ns = 0. && r.wire_ns = 0. && r.switch_ns = 0.)
          "intra-host anatomy has nonzero NIC/wire/switch"
      @ e (r.ring_ns > 0.) "intra-host anatomy has zero ring component"
      @ e (r.guard_faults = 0) "unexpected guard faults"
      @
      match r.mode with
      | "serialize" -> e (r.shared_tx = 0) "Serialize mode shared a message"
      | "share" -> e (r.shared_tx > 0) "Share mode never shared"
      | _ ->
          e
            (if r.payload >= crossover then r.shared_tx > 0 else r.shared_tx = 0)
            (Printf.sprintf "Auto disagrees with model crossover (%d B)" crossover))
    rows
  @
  let auto = List.filter (fun r -> r.mode = "auto") rows in
  if List.exists (fun r -> r.shared_tx > 0) auto && List.exists (fun r -> r.shared_tx = 0) auto
  then []
  else [ Printf.sprintf "the sweep does not straddle the crossover (%d B)" crossover ]

let run ?(seed = 1L) ?(samples = 24) () =
  let cost =
    Erpc.Cost_model.for_cluster (Transport.Cluster.cx3 ~nodes:2 ())
  in
  let crossover = model_crossover cost in
  let rows =
    List.concat_map
      (fun payload ->
        List.map
          (fun (mode, mode_name) -> run_cell ~seed ~samples ~payload ~mode ~mode_name ())
          modes)
      payloads
  in
  let measured_crossover =
    List.filter_map
      (fun r -> if r.mode = "auto" && r.shared_tx > 0 then Some r.payload else None)
      rows
    |> function
    | [] -> None
    | l -> Some (List.fold_left min max_int l)
  in
  { rows; crossover_payload = crossover; measured_crossover;
    violations = check ~crossover rows }

let row_json r =
  Obs.Json.Obj
    [
      ("payload", Obs.Json.Int r.payload);
      ("mode", Obs.Json.Str r.mode);
      ("rpcs", Obs.Json.Int r.rpcs);
      ("mean_ns", Obs.Json.Float r.mean_ns);
      ("ring_ns", Obs.Json.Float r.ring_ns);
      ("nic_ns", Obs.Json.Float r.nic_ns);
      ("wire_ns", Obs.Json.Float r.wire_ns);
      ("switch_ns", Obs.Json.Float r.switch_ns);
      ("shared_tx", Obs.Json.Int r.shared_tx);
      ("serialized_tx", Obs.Json.Int r.serialized_tx);
      ("guard_faults", Obs.Json.Int r.guard_faults);
      ("digest", Obs.Json.Str r.digest);
    ]

let pp_result fmt (r : result) =
  Format.fprintf fmt "shm serialize-vs-share: model crossover at %d B (measured: %s)@."
    r.crossover_payload
    (match r.measured_crossover with Some p -> string_of_int p ^ " B" | None -> "none");
  Format.fprintf fmt "%8s %-10s %5s %10s %10s %7s %7s %7s@." "payload" "mode" "rpcs"
    "mean ns" "ring ns" "shared" "copied" "faults";
  List.iter
    (fun row ->
      Format.fprintf fmt "%8d %-10s %5d %10.0f %10.0f %7d %7d %7d@." row.payload row.mode
        row.rpcs row.mean_ns row.ring_ns row.shared_tx row.serialized_tx row.guard_faults)
    r.rows;
  List.iter (fun v -> Format.fprintf fmt "VIOLATION: %s@." v) r.violations
