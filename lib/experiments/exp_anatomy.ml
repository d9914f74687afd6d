type result = {
  breakdowns : Obs.Anatomy.breakdown list;
  trace : Obs.Trace.t;
  predicted_wire_ns : int -> int;
  violations : string list;
}

let predictor (cluster : Transport.Cluster.t) =
  let cfg = cluster.net_config in
  fun size ->
    let ser = Sim.Time.of_bytes_at_gbps size cfg.link_gbps in
    (2 * (ser + cfg.cable_ns)) + cfg.switch_latency_ns

(* A ring that dropped records lost RPCs from the analysis, and an
   intra-host RPC spends nothing in the NIC, on the wire or in the switch:
   its transit is the ring. *)
let check ~intra_host trace breakdowns =
  (match Obs.Trace.dropped trace with
  | 0 -> []
  | n -> [ Printf.sprintf "the trace ring dropped %d records" n ])
  @ List.filter_map
      (fun (b : Obs.Anatomy.breakdown) ->
        if (not intra_host) || (b.nic_ns = 0 && b.wire_ns = 0 && b.switch_ns = 0 && b.ring_ns > 0)
        then None
        else
          Some
            (Printf.sprintf "req %d has NIC %d, wire %d, switch %d, ring %d ns" b.req b.nic_ns
               b.wire_ns b.switch_ns b.ring_ns))
      breakdowns

(* The one probe behind [run] and every sweep cell: host 0 of [cluster]
   sends [samples] echoes to host 1 strictly sequentially (one request
   outstanding, the next issued only after the previous completes), so
   the network is quiet and every sampled latency decomposes against an
   idle fabric. The trace is the caller's, or one with room for every
   sample: an RPC leaves at most 64 records per request packet (33 for a
   one-packet typed echo). Returns the client Rpc and the checked
   analysis. *)
let probe ?seed ?trace ~(cluster : Transport.Cluster.t) ~config ~register ~payload ~samples () =
  let trace =
    match trace with
    | Some tr -> tr
    | None ->
        let req_size =
          match payload with Harness.Echo { req_size; _ } -> req_size | Typed _ -> 1
        in
        let pkts = max 1 ((req_size + cluster.mtu - 1) / cluster.mtu) in
        Obs.Trace.create ~capacity:(64 * pkts * max 1 samples) ()
  in
  let d = Harness.deploy ?seed ~config ~trace cluster ~threads_per_host:1 ~register in
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  Harness.start_driver
    (Harness.make_driver ~payload ~count:samples ~rpc:client ~sessions:[| sess |] ~window:1
       ());
  Harness.run_ms d (1.0 +. (0.05 *. float_of_int samples));
  let predicted_wire_ns = predictor cluster in
  let breakdowns = Obs.Anatomy.analyze ~wire_ns:predicted_wire_ns (Obs.Trace.events trace) in
  let intra_host = cluster.colocation_groups <> [] in
  let violations = check ~intra_host trace breakdowns in
  (client, { breakdowns; trace; predicted_wire_ns; violations })

let run ?seed ?trace ?(samples = 32) ?(req_size = 32) ?(typed = false)
    ?(backend = Codec.Compact) ?(transport = `Raw_eth) () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let cluster =
    match transport with
    | `Shm -> Transport.Cluster.colocate cluster [ [ 0; 1 ] ]
    | `Raw_eth | `Rdma_rc -> cluster
  in
  let config = { (Erpc.Config.of_cluster cluster) with codec_backend = backend } in
  let config =
    match transport with
    | `Raw_eth | `Shm -> config
    | `Rdma_rc -> { config with Erpc.Config.transport = Erpc.Config.Rdma_rc }
  in
  let register nx =
    if typed then Harness.register_typed_echo Harness.schema_fixed nx
    else Harness.register_echo ~resp_size:32 nx
  in
  let payload =
    if typed then Harness.Typed (Harness.schema_fixed, Harness.value_fixed)
    else Harness.Echo { req_size; resp_size = max 32 req_size }
  in
  snd (probe ?seed ?trace ~cluster ~config ~register ~payload ~samples ())

(* {2 Serialize-vs-share sweep} *)

type shm_row = {
  payload : int;
  mode : string;
  rpcs : int;
  mean_ns : float;
  ring_ns : float;
  nic_ns : float;
  wire_ns : float;
  switch_ns : float;
  shared_tx : int;
  serialized_tx : int;
  guard_faults : int;
  digest : string;
}

type shm_sweep = {
  rows : shm_row list;
  crossover_payload : int;
  measured_crossover : int option;
  violations : string list;
}

let payloads = [ 64; 256; 512; 1024; 1536; 2048; 4096 ]
let modes = [ (Shm.Serialize, "serialize"); (Shm.Share, "share"); (Shm.Auto, "auto") ]

(* The sweep runs on CX3, whose 4096 B MTU keeps every payload
   straddling the ~1 KB crossover single-packet (the share decision is
   per packet). *)
let shm_cluster () = Transport.Cluster.colocate (Transport.Cluster.cx3 ~nodes:2 ()) [ [ 0; 1 ] ]

(* The smallest payload Auto shares under [cost]. *)
let model_crossover cost =
  let costs = Erpc.Cost_model.shm_costs cost in
  let rec find b =
    if b > 1 lsl 20 then max_int else if Shm.prefers_share costs b then b else find (b + 1)
  in
  find 1

(* One cell: the probe under [mode], its row and its violations. *)
let shm_cell ~seed ~samples ~payload ~mode ~mode_name =
  let cluster = shm_cluster () in
  let client, r =
    probe ~seed ~cluster
      ~config:{ (Erpc.Config.of_cluster cluster) with shm_mode = mode }
      ~register:(fun nx -> Harness.register_echo nx)
      ~payload:(Harness.Echo { req_size = payload; resp_size = payload })
      ~samples ()
  in
  let n = List.length r.breakdowns in
  let mean f =
    if n = 0 then 0.
    else float_of_int (List.fold_left (fun acc b -> acc + f b) 0 r.breakdowns) /. float_of_int n
  in
  let s =
    match Erpc.Rpc.shm_endpoint client with
    | Some ep -> Shm.stats ep
    | None -> failwith "shm-bench: shm endpoint missing"
  in
  ( {
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
      digest = Obs.Trace.digest r.trace;
    },
    r.violations )

(* Every cell passes the probe's check, analyzed some RPCs and kept its
   mode's handoff, and the sweep straddles the crossover: some Auto cells
   copy, some share. *)
let sweep_check ~crossover cells =
  List.concat_map
    (fun (r, probed) ->
      let e cond msg = if cond then [] else [ msg ] in
      List.map
        (Printf.sprintf "%s/%d: %s" r.mode r.payload)
        (e (r.rpcs > 0) "no breakdowns analyzed"
        @ probed
        @ e (r.guard_faults = 0) "unexpected guard faults"
        @
        match r.mode with
        | "serialize" -> e (r.shared_tx = 0) "Serialize mode shared a message"
        | "share" -> e (r.shared_tx > 0) "Share mode never shared"
        | _ ->
            e
              (if r.payload >= crossover then r.shared_tx > 0 else r.shared_tx = 0)
              (Printf.sprintf "Auto disagrees with model crossover (%d B)" crossover)))
    cells
  @
  let auto = List.filter (fun (r, _) -> r.mode = "auto") cells in
  if List.exists (fun (r, _) -> r.shared_tx > 0) auto
     && List.exists (fun (r, _) -> r.shared_tx = 0) auto
  then []
  else [ Printf.sprintf "the sweep does not straddle the crossover (%d B)" crossover ]

let shm_sweep ~seed ~samples =
  let crossover = model_crossover (Erpc.Cost_model.for_cluster (shm_cluster ())) in
  let cells =
    List.concat_map
      (fun payload ->
        List.map
          (fun (mode, mode_name) -> shm_cell ~seed ~samples ~payload ~mode ~mode_name)
          modes)
      payloads
  in
  let rows = List.map fst cells in
  {
    rows;
    crossover_payload = crossover;
    (* Rows run in ascending payload order. *)
    measured_crossover =
      List.find_map
        (fun r -> if r.mode = "auto" && r.shared_tx > 0 then Some r.payload else None)
        rows;
    violations = sweep_check ~crossover cells;
  }

let shm_row_json r =
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

let pp_shm_sweep fmt (r : shm_sweep) =
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
