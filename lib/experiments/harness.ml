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
   endpoint's [Config.codec_backend]. *)

let typed_echo_req_type = 2

(* Benchmark schemas. Both are flat-capable so every backend x schema
   combination is valid; [schema_fixed] is all fixed-width (the flat
   backend's best case), [schema_var] carries a variable-length payload
   in a bounded field. *)
let schema_fixed : ((int * int) * string) Codec.t =
  Codec.(pair (pair u32 u32) (fixed_string 16))

let value_fixed = ((7, 42), "0123456789abcdef")

let schema_var : (int * string) Codec.t = Codec.(pair u32 (bounded_string 64))
let value_var = (9, String.make 32 'x')

let register_typed_echo (type a) (codec : a Codec.t) nx =
  Erpc.Nexus.register_handler nx ~req_type:typed_echo_req_type ~mode:Erpc.Nexus.Dispatch
    (fun h -> Erpc.Typed.respond h codec (Erpc.Typed.read_request h codec))

(* {2 Client driver} *)

type payload =
  | Echo of { req_size : int; resp_size : int }
  | Typed : 'a Codec.t * 'a -> payload

type send = Obs.Op.t -> (Obs.Op.result -> unit) -> unit

let ok_or_failed r = if Result.is_ok r then Obs.Op.Ok_ else Obs.Op.Failed

let of_get = function
  | Ok (Some _) -> Obs.Op.Ok_
  | Ok None -> Obs.Op.Miss
  | Error _ -> Obs.Op.Failed

let release free bufs k r =
  free := bufs :: !free;
  k (ok_or_failed r)

let erpc_send ?(payload = Echo { req_size = 32; resp_size = 32 }) ?req_type ?prepare ?rng
    endpoints =
  assert (Array.length endpoints > 0);
  let default_type, req_max, resp_max =
    match payload with
    | Echo { req_size; resp_size } -> (echo_req_type, max 1 req_size, max 1 resp_size)
    | Typed (codec, value) ->
        let backend = Erpc.Rpc.codec_backend (fst endpoints.(0)) in
        let n = Codec.encoded_size ~backend codec value in
        (typed_echo_req_type, n, n)
  in
  let req_type = Option.value req_type ~default:default_type in
  (* Buffer pairs of completed requests, reused newest first. *)
  let free = ref [] and cursor = ref 0 in
  fun op k ->
    let ((req, resp) as bufs) =
      match !free with
      | b :: rest ->
          free := rest;
          b
      | [] -> (Erpc.Msgbuf.alloc ~max_size:req_max, Erpc.Msgbuf.alloc ~max_size:resp_max)
    in
    let rpc, sess =
      match rng with
      | Some rng -> endpoints.(Sim.Rng.int rng (Array.length endpoints))
      | None ->
          let i = !cursor in
          cursor := (i + 1) mod Array.length endpoints;
          endpoints.(i)
    in
    match payload with
    | Echo { req_size; _ } ->
        Erpc.Msgbuf.resize req req_size;
        let req_type = match prepare with Some f -> f op req | None -> req_type in
        Erpc.Rpc.enqueue_request rpc sess ~req_type ~req ~resp ~cont:(fun r ->
            release free bufs k r)
    | Typed (codec, value) ->
        Erpc.Typed.enqueue_request rpc sess ~req_type ~req_codec:codec ~resp_codec:codec
          ~req_buf:req ~resp_buf:resp value ~cont:(fun r ->
            release free bufs k r)

type pace =
  | Closed of { batch : int; count : int }
  | Open of { arrival : Workload.Traffic_spec.arrival; sources : int; until_ns : int }

type tally = {
  mutable issued : int;
  mutable shed : int;
  mutable ok : int;
  mutable misses : int;
  mutable failed : int;
  lat : Stats.Hist.t array;
  tagged : int array;
  untagged : Stats.Hist.t;
  mutable redirects : int;
  mutable backoffs : int;
}

let tally lat =
  {
    issued = 0;
    shed = 0;
    ok = 0;
    misses = 0;
    failed = 0;
    lat;
    tagged = Array.make (Array.length Obs.Op.phase_names) 0;
    untagged = Stats.Hist.create ();
    redirects = 0;
    backoffs = 0;
  }

let tag tagged i n = if n > 0 then tagged.(i) <- tagged.(i) + 1

let fold s (op : Obs.Op.t) =
  let latency = op.done_ns - op.issued_ns in
  if op.result = Obs.Op.Failed then s.failed <- s.failed + 1
  else begin
    s.ok <- s.ok + 1;
    if op.result = Obs.Op.Miss then s.misses <- s.misses + 1;
    Stats.Hist.record s.lat.(op.kind) latency;
    if op.connect_waits + op.redirects + op.election_backoffs + op.error_backoffs = 0 then
      Stats.Hist.record s.untagged latency
  end;
  tag s.tagged 0 op.connect_waits;
  tag s.tagged 1 op.redirects;
  tag s.tagged 2 op.election_backoffs;
  tag s.tagged 3 op.error_backoffs;
  s.redirects <- s.redirects + op.redirects;
  s.backoffs <- s.backoffs + op.election_backoffs + op.error_backoffs

type driver = {
  engine : Sim.Engine.t;
  pace : pace;
  send : send;
  all : tally;
  steady : tally option;
  warmup_ns : int;
  timeline : Obs.Timeline.t option;
  (* A record and a completion callback per slot, reused once the slot's
     operation completes, so that an operation in flight costs the driver
     no allocation; [free] stacks the idle slots. *)
  mutable slots : (Obs.Op.t * (Obs.Op.result -> unit)) array;
  free : int array;
  mutable nfree : int;
  mutable t0 : Sim.Time.t;
  mutable first_done : Sim.Time.t;
  mutable last_done : Sim.Time.t;
  mutable last_latency : int;
}

(* The steady-state tally, for an operation issued (or shed) at [at]. *)
let steady_at t at = if at - t.t0 >= t.warmup_ns then t.steady else None

let issue t ~source =
  let now = Sim.Engine.now t.engine in
  t.nfree <- t.nfree - 1;
  let op, k = t.slots.(t.free.(t.nfree)) in
  Obs.Op.reset op ~id:t.all.issued ~source ~issued_ns:now;
  t.all.issued <- t.all.issued + 1;
  (match steady_at t now with Some s -> s.issued <- s.issued + 1 | None -> ());
  t.send op k

(* Closed loop: issue in batches of [batch], each once a full batch of
   slots is free (free slots short of a batch stay idle, which only
   matters at shutdown). Only a counted run's last batch can be short. *)
let issue_ready t =
  match t.pace with
  | Closed { batch; count } ->
      while t.nfree >= batch && t.all.issued < count do
        for _ = 1 to min batch (count - t.all.issued) do
          issue t ~source:0
        done
      done
  | Open _ -> ()

let complete t ~slot (op : Obs.Op.t) r =
  if op.result <> Obs.Op.Pending then invalid_arg "Harness: an operation completed twice";
  let now = Sim.Engine.now t.engine in
  op.result <- r;
  op.done_ns <- now;
  fold t.all op;
  (match steady_at t op.issued_ns with Some s -> fold s op | None -> ());
  (match t.timeline with
  | Some tl when r = Obs.Op.Failed -> Obs.Timeline.fail tl ~at_ns:(now - t.t0)
  | Some tl -> Obs.Timeline.ok tl ~at_ns:(now - t.t0) ~latency_ns:(now - op.issued_ns)
  | None -> ());
  if t.all.ok + t.all.failed = 1 then t.first_done <- now;
  t.last_done <- now;
  t.last_latency <- now - op.issued_ns;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  issue_ready t

let driver ?latencies ?timeline ?warmup_ns ~engine ~slots pace send =
  assert (
    slots > 0
    &&
    match pace with
    | Closed { batch; count } -> batch > 0 && count >= 0
    | Open { arrival = Every gap_ns; _ } -> gap_ns > 0
    | Open _ -> true);
  let lat = Option.value latencies ~default:[| Stats.Hist.create () |] in
  let t =
    {
      engine;
      pace;
      send;
      all = tally lat;
      steady =
        Option.map (fun _ -> tally (Array.map (fun _ -> Stats.Hist.create ()) lat)) warmup_ns;
      warmup_ns = Option.value warmup_ns ~default:0;
      timeline;
      slots = [||];
      free = Array.init slots Fun.id;
      nfree = slots;
      t0 = Sim.Time.zero;
      first_done = Sim.Time.zero;
      last_done = Sim.Time.zero;
      last_latency = 0;
    }
  in
  t.slots <-
    Array.init slots (fun slot ->
        let op = Obs.Op.create ~id:0 ~source:0 ~issued_ns:0 in
        (op, fun r -> complete t ~slot op r));
  t

(* Open loop: an arrival finding every slot busy is shed. *)
let arrive t ~source () =
  if t.nfree > 0 then issue t ~source
  else begin
    t.all.shed <- t.all.shed + 1;
    match steady_at t (Sim.Engine.now t.engine) with
    | Some s -> s.shed <- s.shed + 1
    | None -> ()
  end

let start_driver t =
  t.t0 <- Sim.Engine.now t.engine;
  match t.pace with
  | Closed _ -> issue_ready t
  | Open { arrival; sources; until_ns } ->
      for source = 0 to sources - 1 do
        let rec arm next at =
          if at < until_ns then begin
            Sim.Engine.schedule t.engine (t.t0 + at) (arrive t ~source);
            arm next (next at)
          end
        in
        match arrival with
        | Every gap_ns -> arm (( + ) gap_ns) 0
        | Process spec ->
            let arr =
              Workload.Arrival.make spec ~rng:(Sim.Rng.split (Sim.Engine.rng t.engine))
            in
            let next now_ns = Workload.Arrival.next_after arr ~now_ns in
            arm next (next 0)
      done

let make_driver ?latencies ?payload ?(batch = 1) ?(per_batch_cost_ns = 0) ?req_type
    ?(count = max_int) ?rng ~rpc ~sessions ~window () =
  assert (if rng = None then Array.length sessions = 1 else Array.length sessions > 0);
  let send = erpc_send ?payload ?req_type ?rng (Array.map (fun s -> (rpc, s)) sessions) in
  (* Per-batch fixed cost (doorbell batching in specialized systems),
     charged as each batch's first request goes out. *)
  let send (op : Obs.Op.t) k =
    if per_batch_cost_ns > 0 && op.id mod batch = 0 then
      ignore (Sim.Cpu.charge (Erpc.Rpc.cpu rpc) per_batch_cost_ns);
    send op k
  in
  driver
    ?latencies:(Option.map (fun h -> [| h |]) latencies)
    ~engine:(Erpc.Fabric.engine (Erpc.Nexus.fabric (Erpc.Rpc.nexus rpc)))
    ~slots:window (Closed { batch; count })
    send

let driver_completed t = t.all.ok
let driver_span t = t.last_done - t.first_done
let driver_last_latency t = t.last_latency
let driver_tally t = t.all
let driver_steady t = t.steady

let run_driver ?(max_slices = max_int) d t ~slice_ms =
  let count =
    match t.pace with
    | Closed { count; _ } when count < max_int -> count
    | _ -> invalid_arg "Harness.run_driver: the driver has no count"
  in
  let rec go slices =
    if t.all.ok + t.all.failed < count && slices > 0 then begin
      run_ms d slice_ms;
      go (slices - 1)
    end
  in
  go max_slices

let tags_json tagged =
  Obs.Json.Obj
    (Array.to_list (Array.mapi (fun i n -> (Obs.Op.phase_names.(i), Obs.Json.Int n)) tagged))

let us_at h p =
  if Stats.Hist.count h = 0 then 0. else float_of_int (Stats.Hist.percentile h p) /. 1e3

let merged lat =
  let h = Stats.Hist.create () in
  Array.iter (fun src -> Stats.Hist.merge ~dst:h ~src) lat;
  h

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
