type deployment = {
  fabric : Erpc.Fabric.t;
  cluster : Transport.Cluster.t;
  nexuses : Erpc.Nexus.t array;
  rpcs : Erpc.Rpc.t array array;
}

let deploy ?seed ?config ?cost ?trace ?(workers_per_host = 1) ?(register = fun _ -> ())
    (cluster : Transport.Cluster.t) ~threads_per_host =
  let fabric = Erpc.Fabric.create ?seed ?config ?cost ?trace cluster in
  let nexuses =
    Array.init cluster.num_hosts (fun host ->
        let nx = Erpc.Nexus.create fabric ~host ~num_workers:workers_per_host () in
        register nx;
        nx)
  in
  let rpcs =
    Array.map
      (fun nx -> Array.init threads_per_host (fun i -> Erpc.Rpc.create nx ~rpc_id:i))
      nexuses
  in
  { fabric; cluster; nexuses; rpcs }

let run_ms d ms =
  let engine = Erpc.Fabric.engine d.fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let run_us d us =
  let engine = Erpc.Fabric.engine d.fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.us us))

let echo_req_type = 1

let register_echo ?(req_type = echo_req_type) ?resp_size nx =
  Erpc.Nexus.register_handler nx ~req_type ~mode:Erpc.Nexus.Dispatch (fun h ->
      let req = Erpc.Req_handle.get_request h in
      let n = match resp_size with Some n -> n | None -> Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      (* Echo back as much request data as fits, so tests can check
         integrity. *)
      let copy = min n (Erpc.Msgbuf.size req) in
      if copy > 0 then
        Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:copy;
      Erpc.Req_handle.enqueue_response h resp)

let connect d rpc ~remote_host ~remote_rpc_id =
  let status = ref None in
  let sess =
    Erpc.Rpc.create_session rpc ~remote_host ~remote_rpc_id
      ~on_connect:(fun r -> status := Some r)
      ()
  in
  (* The handshake is two SM messages; run a little beyond that. *)
  let rec wait tries =
    if !status = None && tries > 0 then begin
      run_us d 100.;
      wait (tries - 1)
    end
  in
  wait 100;
  (match !status with
  | Some (Ok ()) -> ()
  | Some (Error e) -> failwith ("Harness.connect: " ^ Erpc.Err.to_string e)
  | None -> failwith "Harness.connect: handshake did not complete");
  sess

(* {2 Typed workloads}

   Schema-driven counterparts of the echo workload, for exercising the
   codec backends end-to-end: the server decodes the request and re-encodes
   it as the response, charging modeled (de)serialization cost per the
   endpoint's [Config.codec_backend] / [codec_offload]. *)

let typed_echo_req_type = 2

(* Benchmark schemas. Both are flat-capable so every backend x schema
   combination is valid; [schema_fixed] is all fixed-width (the flat
   backend's best case, lazy-access friendly), [schema_var] carries a
   variable-length payload in a bounded field. *)
let schema_fixed : ((int * int) * string) Codec.t =
  Codec.(pair (pair u32 u32) (fixed_string 16))

let value_fixed = ((7, 42), "0123456789abcdef")

let schema_var : (int * string) Codec.t = Codec.(pair u32 (bounded_string 64))
let value_var = (9, String.make 32 'x')

let register_typed_echo (type a) ?(req_type = typed_echo_req_type) (codec : a Codec.t) nx
    =
  Erpc.Nexus.register_handler nx ~req_type ~mode:Erpc.Nexus.Dispatch (fun h ->
      let v = Erpc.Typed.read_request h codec in
      Erpc.Typed.respond h codec v)

(* {2 Client driver} *)

type payload =
  | Echo of { req_size : int; resp_size : int }
  | Typed : 'a Codec.t * 'a -> payload

type driver = {
  payload : payload;
  req_type : int;
  rng : Sim.Rng.t option;
  rpc : Erpc.Rpc.t;
  sessions : Erpc.Session.session array;
  batch : int;
  per_batch_cost_ns : int;
  latencies : Stats.Hist.t option;
  bufs : (Erpc.Msgbuf.t * Erpc.Msgbuf.t) array;
  engine : Sim.Engine.t;
  count : int;  (** requests to issue in all; [max_int] without a count *)
  mutable ready : int list;  (** free buffer-pair indexes awaiting a batch *)
  mutable issued : int;
  mutable returned : int;  (** continuations run, failed requests included *)
  mutable completed : int;
  mutable first_done : Sim.Time.t;
  mutable last_done : Sim.Time.t;
  mutable last_latency : int;  (** issue to completion of the latest request, ns *)
}

let make_driver ?latencies ?(payload = Echo { req_size = 32; resp_size = 32 }) ?(batch = 1)
    ?(per_batch_cost_ns = 0) ?req_type ?(count = max_int) ?rng ~rpc ~sessions ~window () =
  assert (window > 0 && batch > 0 && count >= 0);
  assert (if rng = None then Array.length sessions = 1 else Array.length sessions > 0);
  let default_type, (req_max, resp_max) =
    match payload with
    | Echo { req_size; resp_size } -> (echo_req_type, (max 1 req_size, max 1 resp_size))
    | Typed (codec, value) ->
        let backend = fst (Erpc.Rpc.codec_mode rpc) in
        let n = Codec.encoded_size ~backend codec value in
        (typed_echo_req_type, (n, n))
  in
  {
    payload;
    req_type = Option.value req_type ~default:default_type;
    rng;
    rpc;
    sessions;
    batch;
    per_batch_cost_ns;
    latencies;
    bufs =
      Array.init window (fun _ ->
          (Erpc.Msgbuf.alloc ~max_size:req_max, Erpc.Msgbuf.alloc ~max_size:resp_max));
    engine = Erpc.Fabric.engine (Erpc.Rpc.nexus rpc |> Erpc.Nexus.fabric);
    count;
    ready = List.init window Fun.id;
    issued = 0;
    returned = 0;
    completed = 0;
    first_done = Sim.Time.zero;
    last_done = Sim.Time.zero;
    last_latency = 0;
  }

let rec issue_ready t =
  (* Issue in batches of [batch]: wait until a full batch of buffer pairs
     is free (free pairs short of a batch stay pending, which only matters
     at shutdown). Only a counted run's last batch can be short. *)
  while List.length t.ready >= t.batch && t.issued < t.count do
    let rec take n acc rest =
      if n = 0 then (acc, rest)
      else match rest with [] -> (acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
    in
    let batch_idx, rest = take (min t.batch (t.count - t.issued)) [] t.ready in
    t.ready <- rest;
    (* Per-batch fixed cost (doorbell batching in specialized systems). *)
    if t.per_batch_cost_ns > 0 then
      ignore (Sim.Cpu.charge (Erpc.Rpc.cpu t.rpc) t.per_batch_cost_ns);
    List.iter (fun idx -> issue_one t idx) batch_idx
  done

and issue_one t idx =
  let req, resp = t.bufs.(idx) in
  let sess =
    match t.rng with
    | Some rng -> t.sessions.(Sim.Rng.int rng (Array.length t.sessions))
    | None -> t.sessions.(0)
  in
  let t0 = Sim.Engine.now t.engine in
  t.issued <- t.issued + 1;
  match t.payload with
  | Echo { req_size; _ } ->
      Erpc.Msgbuf.resize req req_size;
      Erpc.Rpc.enqueue_request t.rpc sess ~req_type:t.req_type ~req ~resp ~cont:(fun r ->
          complete t idx t0 (Result.is_ok r))
  | Typed (codec, value) ->
      Erpc.Typed.enqueue_request t.rpc sess ~req_type:t.req_type ~req_codec:codec
        ~resp_codec:codec ~req_buf:req ~resp_buf:resp value ~cont:(fun r ->
          complete t idx t0 (Result.is_ok r))

and complete t idx t0 ok =
  let now = Sim.Engine.now t.engine in
  let latency = Sim.Time.sub now t0 in
  if ok then begin
    t.completed <- t.completed + 1;
    match t.latencies with Some h -> Stats.Hist.record h latency | None -> ()
  end;
  if t.returned = 0 then t.first_done <- now;
  t.returned <- t.returned + 1;
  t.last_done <- now;
  t.last_latency <- latency;
  t.ready <- idx :: t.ready;
  issue_ready t

let start_driver t = issue_ready t
let driver_completed t = t.completed
let driver_span t = Sim.Time.sub t.last_done t.first_done
let driver_last_latency t = t.last_latency

let run_driver ?(max_slices = max_int) d t ~slice_ms =
  if t.count = max_int then invalid_arg "Harness.run_driver: the driver has no count";
  let rec go slices =
    if t.returned < t.count && slices > 0 then begin
      run_ms d slice_ms;
      go (slices - 1)
    end
  in
  go max_slices

(* {2 Replicated KV} *)

let start_replicas d ~map =
  let replicas =
    Array.map
      (fun host ->
        Service.Replica.create ~fabric:d.fabric ~nexus:d.nexuses.(host)
          ~rpc:d.rpcs.(host).(0) ~map ~host ())
      (Service.Shard_map.replica_hosts map)
  in
  let all_elected () =
    List.for_all
      (fun shard -> Array.exists (fun r -> Service.Replica.is_leader r ~shard) replicas)
      (List.init (Service.Shard_map.shards map) Fun.id)
  in
  let rec elect budget =
    if (not (all_elected ())) && budget > 0 then begin
      run_ms d 5.0;
      elect (budget - 1)
    end
  in
  elect 100;
  (replicas, all_elected ())

let sum_stats d f =
  Array.fold_left
    (Array.fold_left (fun acc rpc -> acc + f (Erpc.Rpc.stats rpc)))
    0 d.rpcs

let total_completed d = sum_stats d (fun s -> s.Erpc.Rpc_stats.completed)
