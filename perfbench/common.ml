(* Machinery shared by the three workloads: host clocks, host-time spans,
   GC pause collection, exact percentiles, per-layer counter snapshots and
   the record one repetition of a workload returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {2 Growable int vector} — latency samples, kept raw so percentiles are
   exact order statistics rather than histogram bucket midpoints. *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let rank n p = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
let pct sorted p = if Array.length sorted = 0 then 0 else sorted.(rank (Array.length sorted) p)

(* Samples strictly above the percentile's rank. *)
let beyond sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else n - 1 - rank n p

let hist_pct h p = if Stats.Hist.count h = 0 then 0 else Stats.Hist.percentile h p

(* {2 Metrics} *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let mi name unit v = m name unit (float_of_int v)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* {2 Host-time spans}

   Spans around the benchmark's calls into each layer, recorded only in
   the traced run. Each span has an id, its enclosing span as parent, and
   the id of the operation it serves; spans are kept in memory (an
   {!Obs.Trace} ring stamped with host nanoseconds) and written out as
   Chrome-trace JSON at exit. Per-name totals and self times (duration
   minus enclosed child spans) feed the per-layer metrics. *)

module Spans = struct
  let on = ref false

  type frame = { id : int; start : int; mutable child : int }
  type total = { mutable total_ns : int; mutable self_ns : int }

  let stack : frame list ref = ref []
  let totals : (string, total) Hashtbl.t = Hashtbl.create 16
  let store = ref Obs.Trace.disabled
  let next_id = ref 0
  let epoch = ref 0

  let start ~capacity =
    Hashtbl.reset totals;
    stack := [];
    next_id := 0;
    epoch := now_ns ();
    store := Obs.Trace.create ~capacity ();
    on := true

  let stop () = on := false

  let finish name ~op fr parent =
    let dur = now_ns () - fr.start in
    stack := (match !stack with _ :: tl -> tl | [] -> []);
    (match !stack with p :: _ -> p.child <- p.child + dur | [] -> ());
    let t =
      match Hashtbl.find_opt totals name with
      | Some t -> t
      | None ->
          let t = { total_ns = 0; self_ns = 0 } in
          Hashtbl.add totals name t;
          t
    in
    t.total_ns <- t.total_ns + dur;
    t.self_ns <- t.self_ns + dur - fr.child;
    Obs.Trace.complete !store ~ts:(fr.start - !epoch) ~dur ~cat:"host" ~name ~pid:0 ~tid:0
      [ ("id", Obs.Trace.I fr.id); ("parent", Obs.Trace.I parent); ("op", Obs.Trace.I op) ]

  let span name ~op f =
    if not !on then f ()
    else begin
      incr next_id;
      let parent = match !stack with p :: _ -> p.id | [] -> 0 in
      let fr = { id = !next_id; start = now_ns (); child = 0 } in
      stack := fr :: !stack;
      match f () with
      | v ->
          finish name ~op fr parent;
          v
      | exception e ->
          finish name ~op fr parent;
          raise e
    end

  let get name =
    match Hashtbl.find_opt totals name with
    | Some t -> t
    | None -> { total_ns = 0; self_ns = 0 }

  let dropped () = Obs.Trace.dropped !store
end

(* Span names: calls into the library layers, and the benchmark's own
   callbacks (whose self time is not engine work). *)
let sp_slice = "engine.run_until"
let sp_generator = "workload.generator"
let sp_enqueue = "erpc.enqueue_request"
let sp_kv_get = "service.client_pool.get"
let sp_kv_put = "service.client_pool.put"
let sp_arrival = "bench.arrival"
let sp_continuation = "bench.continuation"
let sp_handler = "bench.handler"
let own_callbacks = [ sp_arrival; sp_continuation; sp_handler ]

(* {2 GC pauses} from the runtime's event ring (OCaml 5.1
   [runtime_events]): time spent in minor collections and major slices,
   nested phases counted once. *)

module Gc_pauses = struct
  let total_ns = ref 0
  let depth = ref 0
  let since = ref 0L

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts ph ->
        if counted ph then begin
          if !depth = 0 then since := Runtime_events.Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun _ ts ph ->
        if counted ph && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total_ns :=
              !total_ns + Int64.to_int (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !since)
        end)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let poll () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None : int)

  let reset () =
    poll ();
    total_ns := 0
end

(* {2 Machine speed}

   The CPU speed a process gets on a shared host drifts. On the 2-vCPU
   Intel Xeon (2.1 GHz) virtual machine this benchmark was written on, a
   fixed compute loop took from 1x to 2x its uncontended time, in regimes
   lasting seconds, and the simulator's CPU time per op moved with it.
   Host costs are therefore scaled by how fast a fixed reference loop
   runs while they are measured. During every timed phase the engine-slice
   loop times the reference loop once per 200 ms of CPU, and a
   repetition's host costs are multiplied by [nominal_s] / (mean
   reference time). The loop does no allocation and reads and writes an
   8 MiB table at random, so its speed depends on the core and the memory
   system, never on this repository's code. [nominal_s] is its fastest
   time seen on the machine above, so scaled costs read as CPU time on an
   uncontended core there. Time spent in the loop is excluded from every
   measured phase. *)

module Speed = struct
  let nominal_s = 0.008
  (* Outside the OCaml heap, so the GC never scans it and the peak heap
     does not count it. *)
  let table =
    let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20) in
    Bigarray.Array1.fill t 0;
    t
  let spent_s = ref 0.
  let samples = ref []
  let last = ref 0.

  let sample () =
    let t0 = Sys.time () in
    let acc = ref 0 in
    for i = 1 to 1_000_000 do
      let j = (i * 7919) land ((1 lsl 20) - 1) in
      table.{j} <- table.{j} + i;
      acc := !acc + table.{(j * 13) land ((1 lsl 20) - 1)}
    done;
    let t1 = Sys.time () in
    if !acc = 0 then table.{0} <- 1;
    spent_s := !spent_s +. (t1 -. t0);
    samples := (t1 -. t0) :: !samples;
    last := t1

  let maybe_sample () = if Sys.time () -. !last > 0.2 then sample ()

  (* Start measuring a repetition. *)
  let reset () =
    samples := [];
    last := 0.

  (* Multiplier taking this repetition's host costs to the nominal core.
     Samples are evenly spaced in CPU time, so their mean is the
     time-weighted slowdown that the repetition's CPU time sums over. *)
  let factor () =
    if !samples = [] then sample ();
    nominal_s *. float_of_int (List.length !samples) /. List.fold_left ( +. ) 0. !samples

  (* Process CPU seconds, excluding the reference loop. *)
  let cpu_s () = Sys.time () -. !spent_s
end

(* {2 Engine slices}

   The timed phase advances the engine in fixed slices of simulated time;
   slice boundaries sample the event-queue depth and, when tracing, drain
   the GC event ring. Slicing never changes what the engine executes. *)

type slicer = { mutable depth_max : int }

let slicer () = { depth_max = 0 }

let run_slices sl engine ~until ~slice_ns =
  let rec go () =
    let now = Sim.Engine.now engine in
    if now < until then begin
      let next = min until (now + slice_ns) in
      Spans.span sp_slice ~op:0 (fun () -> Sim.Engine.run_until engine next);
      sl.depth_max <- max sl.depth_max (Sim.Engine.pending engine);
      if !Spans.on then Gc_pauses.poll ();
      Speed.maybe_sample ();
      go ()
    end
  in
  go ()

(* {2 Per-layer counters}, read before and after the timed phase. *)

type counters = {
  events : int;
  rpc_tx_pkts : int;
  port_pkts : int;
  fabric_drops : int;
  injected_losses : int;
  rx_no_desc : int;
  cc_updates : int;
  wheel_inserts : int;
  retransmits : int;
  session_resets : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  gc_pause_ns : int;
  slice_ns : int;  (** host ns inside engine slices (traced) *)
  own_ns : int;  (** host self ns of the benchmark's own callbacks (traced) *)
  generator_ns : int;  (** host ns inside arrival and key generators (traced) *)
  cpu_s : float;
}

let sum_counter metrics name = Obs.Metrics.fold_counters metrics ~name (fun a _ v -> a + v) 0

let counters (d : Experiments.Harness.deployment) =
  let engine = Erpc.Fabric.engine d.fabric in
  let metrics = Sim.Engine.metrics engine in
  let net = Erpc.Fabric.net d.fabric in
  let rpcs = Array.concat (Array.to_list d.rpcs) in
  let stat f = Array.fold_left (fun a r -> a + f (Erpc.Rpc.stats r)) 0 rpcs in
  let gc = Gc.quick_stat () in
  if !Spans.on then Gc_pauses.poll ();
  {
    events = Sim.Engine.events_processed engine;
    rpc_tx_pkts = stat (fun s -> s.Erpc.Rpc_stats.tx_pkts);
    port_pkts = sum_counter metrics "port.tx_pkts";
    fabric_drops = Netsim.Network.fabric_drops net;
    injected_losses = Netsim.Network.injected_losses net;
    rx_no_desc = sum_counter metrics "nic.rx_dropped_no_desc";
    cc_updates = Array.fold_left (fun a r -> a + Erpc.Rpc.cc_updates r) 0 rpcs;
    wheel_inserts = stat (fun s -> s.Erpc.Rpc_stats.wheel_inserts);
    retransmits = stat (fun s -> s.Erpc.Rpc_stats.retransmits);
    session_resets = stat (fun s -> s.Erpc.Rpc_stats.session_resets);
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
    gc_pause_ns = !Gc_pauses.total_ns;
    slice_ns = (Spans.get sp_slice).total_ns;
    own_ns = List.fold_left (fun a n -> a + (Spans.get n).self_ns) 0 own_callbacks;
    generator_ns = (Spans.get sp_generator).total_ns;
    cpu_s = Speed.cpu_s ();
  }

let combine f g a b =
  {
    events = f a.events b.events;
    rpc_tx_pkts = f a.rpc_tx_pkts b.rpc_tx_pkts;
    port_pkts = f a.port_pkts b.port_pkts;
    fabric_drops = f a.fabric_drops b.fabric_drops;
    injected_losses = f a.injected_losses b.injected_losses;
    rx_no_desc = f a.rx_no_desc b.rx_no_desc;
    cc_updates = f a.cc_updates b.cc_updates;
    wheel_inserts = f a.wheel_inserts b.wheel_inserts;
    retransmits = f a.retransmits b.retransmits;
    session_resets = f a.session_resets b.session_resets;
    minor_words = g a.minor_words b.minor_words;
    promoted_words = g a.promoted_words b.promoted_words;
    major_collections = f a.major_collections b.major_collections;
    gc_pause_ns = f a.gc_pause_ns b.gc_pause_ns;
    slice_ns = f a.slice_ns b.slice_ns;
    own_ns = f a.own_ns b.own_ns;
    generator_ns = f a.generator_ns b.generator_ns;
    cpu_s = g a.cpu_s b.cpu_s;
  }

(* Counter deltas over a timed phase, and their sum over phases. *)
let delta c1 c0 = combine ( - ) ( -. ) c1 c0
let add a b = combine ( + ) ( +. ) a b

(* {2 One repetition of a workload} *)

type rep = {
  setup_s : float;  (** process CPU seconds from deploy to the end of warmup *)
  timed_s : float;  (** process CPU seconds of the timed phase *)
  ops : int;  (** client RPCs of the workload completed in the timed phase *)
  attempted : int;  (** operations due in the timed phase *)
  failed : int;  (** errors + deadline misses + shed arrivals *)
  sim : metric list;  (** simulated end-to-end metrics (deterministic) *)
  layers : metric list;  (** simulated per-layer metrics (deterministic) *)
  traced_layers : metric list;  (** anatomy and trace accounting (traced run only) *)
  host_layers : metric list;  (** host-side per-layer metrics *)
  digest : string;  (** end-state digest *)
  violations : string list;
  notes : string list;  (** human-readable lines printed beside the metrics *)
}

(* Host-side per-layer metrics of the timed phase(s). *)
let host_layers (dc : counters) ~depth_max ~arrivals =
  let per_event x = if dc.events = 0 then 0. else x /. float_of_int dc.events in
  [
    m "gc.minor_words_per_event" "words" (per_event dc.minor_words);
    m "gc.promoted_words_per_event" "words" (per_event dc.promoted_words);
    mi "gc.major_collections" "count" dc.major_collections;
    m "gc.pause_ms" "ms" (float_of_int dc.gc_pause_ns /. 1e6);
    m "sim.host_ns_per_event" "ns" (per_event (float_of_int (dc.slice_ns - dc.own_ns)));
    m "workload.host_ns_per_arrival" "ns" (ratio dc.generator_ns arrivals);
    mi "sim.queue_depth_max" "count" depth_max;
  ]

let buffer_peak_kb (d : Experiments.Harness.deployment) =
  Obs.Metrics.max_gauge (Sim.Engine.metrics (Erpc.Fabric.engine d.fabric))
    ~name:"switch.buffer_max"
  /. 1024.

(* Simulated per-layer metrics common to every workload. *)
let sim_layers (dc : counters) ~buffer_peak_kb ~ops =
  let per_op x = ratio x ops in
  [
    m "sim.events_per_op" "count" (per_op dc.events);
    m "netsim.pkts_per_op" "count" (per_op dc.port_pkts);
    m "netsim.switch_buffer_peak_kb" "KiB" buffer_peak_kb;
    mi "netsim.drops" "count" (dc.fabric_drops + dc.injected_losses);
    mi "nic.rx_dropped_no_desc" "count" dc.rx_no_desc;
    m "erpc.tx_pkts_per_op" "count" (per_op dc.rpc_tx_pkts);
    m "erpc.cc_updates_per_op" "count" (per_op dc.cc_updates);
    mi "erpc.wheel_inserts" "count" dc.wheel_inserts;
    mi "erpc.retransmits" "count" dc.retransmits;
    mi "erpc.session_resets" "count" dc.session_resets;
  ]

(* Mean dispatch-CPU utilization of the given Rpcs since their stats were
   last reset. *)
let cpu_util rpcs =
  if rpcs = [] then 0.
  else
    List.fold_left (fun a r -> a +. Sim.Cpu.utilization (Erpc.Rpc.cpu r)) 0. rpcs
    /. float_of_int (List.length rpcs)

(* Latency metrics from raw samples (ns). *)
let latency_metrics sorted =
  let us p = float_of_int (pct sorted p) /. 1e3 in
  [ m "sim_p50_us" "us" (us 50.); m "sim_p99_us" "us" (us 99.); m "sim_p999_us" "us" (us 99.9) ]

let latency_note label sorted =
  Printf.sprintf "%s: n=%d p50=%.3fus p99=%.3fus (%d beyond) p99.9=%.3fus (%d beyond)" label
    (Array.length sorted)
    (float_of_int (pct sorted 50.) /. 1e3)
    (float_of_int (pct sorted 99.) /. 1e3)
    (beyond sorted 99.)
    (float_of_int (pct sorted 99.9) /. 1e3)
    (beyond sorted 99.9)

(* Digest of deterministic end state: every endpoint's counters, the
   engine clock and event count, and whatever the workload adds. *)
let end_digest (d : Experiments.Harness.deployment) extra =
  let engine = Erpc.Fabric.engine d.fabric in
  let stats = Array.map (Array.map (fun r -> Erpc.Rpc.stats r)) d.rpcs in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Sim.Engine.now engine, Sim.Engine.events_processed engine, stats, extra)
          []))

(* The 32 B echo handler, as [Experiments.Harness.register_echo] but with
   its body inside a host span. *)
let register_echo ?(req_type = Experiments.Harness.echo_req_type) ~resp_size nx =
  Erpc.Nexus.register_handler nx ~req_type ~mode:Erpc.Nexus.Dispatch (fun h ->
      Spans.span sp_handler ~op:0 (fun () ->
          let req = Erpc.Req_handle.get_request h in
          let resp = Erpc.Req_handle.init_response h ~size:resp_size in
          let copy = min resp_size (Erpc.Msgbuf.size req) in
          if copy > 0 then Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:copy;
          Erpc.Req_handle.enqueue_response h resp))

(* {2 Anatomy of a traced run}

   Breakdowns of the client-host RPCs in the sim trace, with the trace's
   own accounting; the trace itself can be dropped afterwards. *)

type anatomy = { bds : Obs.Anatomy.breakdown list; retained : int; dropped : int }

let no_anatomy = { bds = []; retained = 0; dropped = 0 }

let anatomy ~cluster ~trace ~client_host =
  match trace with
  | None -> no_anatomy
  | Some trace ->
      {
        bds =
          List.filter
            (fun (b : Obs.Anatomy.breakdown) -> client_host b.host)
            (Obs.Anatomy.analyze
               ~wire_ns:(Experiments.Exp_anatomy.predictor cluster)
               (Obs.Trace.events trace));
        retained = Obs.Trace.length trace;
        dropped = Obs.Trace.dropped trace;
      }

let add_anatomy a b =
  { bds = a.bds @ b.bds; retained = a.retained + b.retained; dropped = a.dropped + b.dropped }

let anatomy_components =
  [ "client_tx"; "pacing"; "nic"; "wire"; "switch"; "ring"; "server"; "codec"; "client_rx" ]

let component (b : Obs.Anatomy.breakdown) = function
  | "client_tx" -> b.client_tx_ns
  | "pacing" -> b.pacing_ns
  | "nic" -> b.nic_ns
  | "wire" -> b.wire_ns
  | "switch" -> b.switch_ns
  | "ring" -> b.ring_ns
  | "server" -> b.server_ns
  | "codec" -> b.req_ser_ns + b.req_deser_ns + b.resp_ser_ns + b.resp_deser_ns
  | _ -> b.client_rx_ns

(* Per-component p50/p99, coverage and drops, plus the exact-sum and
   no-drop checks. Empty for an untraced run. *)
let anatomy_metrics ~traced a ~client_rpcs =
  if not traced then ([], [])
  else begin
    let bad =
      List.length
        (List.filter (fun b -> Obs.Anatomy.sum_components b <> b.Obs.Anatomy.total_ns) a.bds)
    in
    let dropped = a.dropped + Spans.dropped () in
    let metrics =
      List.concat_map
        (fun c ->
          let v = Array.of_list (List.map (fun b -> component b c) a.bds) in
          Array.sort compare v;
          [
            mi (Printf.sprintf "anatomy.%s.p50_ns" c) "ns" (pct v 50.);
            mi (Printf.sprintf "anatomy.%s.p99_ns" c) "ns" (pct v 99.);
          ])
        anatomy_components
      @ [
          m "obs.anatomy_coverage" "frac" (ratio (List.length a.bds) client_rpcs);
          mi "obs.trace_dropped" "count" dropped;
        ]
    in
    let violations =
      (if bad > 0 then [ Printf.sprintf "anatomy: %d breakdowns do not sum to their total" bad ]
       else [])
      @ if dropped > 0 then [ Printf.sprintf "trace: %d events or spans dropped" dropped ] else []
    in
    Printf.printf "  trace: %d sim events retained, %d host spans, %d breakdowns\n" a.retained
      (Obs.Trace.length !Spans.store) (List.length a.bds);
    (metrics, violations)
  end

(* Metrics a workload does not exercise, reported as 0. *)
let not_exercised names = List.map (fun (name, unit) -> m name unit 0.) names

let service_names =
  [
    ("service.retries", "count");
    ("service.redirects", "count");
    ("service.deadline_exceeded", "count");
    ("service.dedup_hits", "count");
    ("service.raft_drops", "count");
    ("service.useful_frac", "frac");
    ("service.get_p99_us", "us");
    ("service.put_p99_us", "us");
    ("raft.commit_p50_us", "us");
    ("raft.commit_p99_us", "us");
  ]

(* The sim trace used by a traced repetition. *)
let make_trace ~traced ~capacity =
  if traced then Some (Obs.Trace.create ~capacity ()) else None

(* RTT samples (ns) from every listed client endpoint. *)
let rtt_probe rpcs =
  let v = Vec.create () in
  List.iter (fun r -> Erpc.Rpc.set_rtt_probe r (Vec.push v)) rpcs;
  v

let rtt_metrics v =
  let s = Vec.sorted v in
  [
    m "erpc.rtt_p50_us" "us" (float_of_int (pct s 50.) /. 1e3);
    m "erpc.rtt_p99_us" "us" (float_of_int (pct s 99.) /. 1e3);
  ]
