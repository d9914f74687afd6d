(* Codec benchmark ([erpc_sim codec-bench]): per backend x payload schema,
   measure

   - wall-clock encode/decode ns/op of the codec implementation itself
     (tight loop over a preallocated buffer, [Sys.time]-based), and
   - the *modeled* per-message costs the simulator charges, plus the
     simulated end-to-end small-RPC rate a typed echo workload reaches
     under that codec configuration.

   The wall-clock columns benchmark this repository's code; the modeled
   columns are the simulator's claim about an eRPC-class implementation. *)

type row = {
  backend : string;
  schema : string;
  wire_bytes : int;
  leaves : int;
  encode_ns : float;  (** wall-clock ns per encode *)
  decode_ns : float;  (** wall-clock ns per decode *)
  model_encode_ns : int;  (** modeled CPU charge per encode *)
  model_decode_ns : int;
  sim_mrps : float;  (** simulated typed-echo rate under this config *)
}

type packed = P : string * 'a Codec.t * 'a -> packed

let schemas =
  [
    P ("fixed24", Harness.schema_fixed, Harness.value_fixed);
    P ("var64", Harness.schema_var, Harness.value_var);
  ]

let backends = [ Codec.Compact; Codec.Flat ]

let time_ns_per_op iters f =
  f () (* warm *);
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int iters

let sim_mrps ~seed ~backend ~measure_ms (P (_, codec, value)) =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let config = { (Erpc.Config.of_cluster cluster) with codec_backend = backend } in
  let d =
    Harness.deploy ~seed ~config cluster ~threads_per_host:1
      ~register:(Harness.register_typed_echo codec)
  in
  let rpc = d.rpcs.(0).(0) in
  let sessions = [| Harness.connect d rpc ~remote_host:1 ~remote_rpc_id:0 |] in
  let rng = Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)) in
  let driver =
    Harness.make_driver ~payload:(Harness.Typed (codec, value)) ~rng ~rpc ~sessions
      ~window:16 ~batch:1 ()
  in
  Harness.start_driver driver;
  Harness.run_ms d 0.5 (* warmup *);
  let before = Harness.driver_completed driver in
  Harness.run_ms d measure_ms;
  let after = Harness.driver_completed driver in
  float_of_int (after - before) /. (measure_ms *. 1e-3) /. 1e6

let run_one ?(seed = 1L) ?(iters = 100_000) ?(measure_ms = 2.0) ~backend
    (P (name, codec, value) as p) =
  let bytes = Codec.encoded_size ~backend codec value in
  let leaves = Codec.encoded_leaves ~backend codec value in
  let buf = Bytes.make bytes '\000' in
  ignore (Codec.encode ~backend codec buf 0 value);
  let encode_ns = time_ns_per_op iters (fun () -> ignore (Codec.encode ~backend codec buf 0 value)) in
  let decode_ns =
    time_ns_per_op iters (fun () -> ignore (Codec.decode ~backend codec buf ~off:0 ~len:bytes))
  in
  let model ~deser = Erpc.Cost_model.(codec_cost default) ~deser ~backend ~leaves ~bytes in
  {
    backend = Codec.backend_name backend;
    schema = name;
    wire_bytes = bytes;
    leaves;
    encode_ns;
    decode_ns;
    model_encode_ns = model ~deser:false;
    model_decode_ns = model ~deser:true;
    sim_mrps = sim_mrps ~seed ~backend ~measure_ms p;
  }

let run ?seed ?iters ?measure_ms () =
  List.concat_map
    (fun p -> List.map (fun backend -> run_one ?seed ?iters ?measure_ms ~backend p) backends)
    schemas

let key r = [ ("backend", Obs.Json.Str r.backend); ("schema", Obs.Json.Str r.schema) ]

let row_json r =
  Obs.Json.Obj
    (key r
    @ [
        ("wire_bytes", Obs.Json.Int r.wire_bytes);
        ("leaves", Obs.Json.Int r.leaves);
        ("model_encode_ns", Obs.Json.Int r.model_encode_ns);
        ("model_decode_ns", Obs.Json.Int r.model_decode_ns);
        ("sim_mrps", Obs.Json.Float r.sim_mrps);
      ])

let host_json r =
  Obs.Json.Obj
    (key r
    @ [ ("encode_ns", Obs.Json.Float r.encode_ns); ("decode_ns", Obs.Json.Float r.decode_ns) ])

let pp_table fmt rows =
  Format.fprintf fmt "%-8s %-8s %6s %6s %10s %10s %10s %10s %9s@." "backend" "schema" "bytes"
    "leaves" "enc ns/op" "dec ns/op" "model enc" "model dec" "sim Mrps";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s %-8s %6d %6d %10.1f %10.1f %10d %10d %9.3f@." r.backend r.schema
        r.wire_bytes r.leaves r.encode_ns r.decode_ns r.model_encode_ns r.model_decode_ns
        r.sim_mrps)
    rows
