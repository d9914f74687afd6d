(* A departure is packed as [depart_ns lsl size_bits lor size_bytes]. *)
let size_bits = 16
let size_mask = (1 lsl size_bits) - 1

type t = {
  engine : Sim.Engine.t;
  name : string;
  rate_gbps : float;
  extra_delay_ns : int;
  pool : Buffer_pool.t option;
  lossless : bool;
  packets : Packet.table;
  (* The packed departures of the admitted packets not yet settled, in
     FIFO order: the queue, as a closed-form FIFO server sees it. *)
  departures : Sim.Ring.t;
  mutable busy_until : Sim.Time.t;  (* departure of the last admitted packet *)
  (* Handler of the link-flight event, which carries its packet's handle. *)
  mutable arrive : Sim.Engine.handler;
  mutable queued_bytes : int;
  mutable admitted_packets : int;
  mutable admitted_bytes : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable dropped_packets : int;
  mutable dropped_bytes : int;
  mutable pause_events : int;
  trace : Obs.Trace.t;
  tid : int;  (* this port's thread track under the network pid *)
}

(* Queue-occupancy counter samples; rendered by Perfetto as a per-port
   area chart (switch-buffer occupancy under incast, Table 5's "buffer").
   An enqueue sample also shows the pool. A departure sample is emitted
   when the departure settles, stamped with its departure time; by then
   the pool may hold later admissions, so it shows the port only. *)
let trace_enqueue t ts =
  Obs.Trace.counter t.trace ~ts ~cat:"net" ~name:t.name ~pid:Obs.Trace.net_pid
    [
      ("queued_bytes", Obs.Trace.I t.queued_bytes);
      ( "pool_used",
        Obs.Trace.I (match t.pool with Some p -> Buffer_pool.used p | None -> 0) );
    ]

let trace_departure t ts =
  Obs.Trace.counter t.trace ~ts ~cat:"net" ~name:t.name ~pid:Obs.Trace.net_pid
    [ ("queued_bytes", Obs.Trace.I t.queued_bytes) ]

(* Moves every departure due before [before] out of the queue. *)
let settle t ~before =
  let q = t.departures in
  while (not (Sim.Ring.is_empty q)) && Sim.Ring.get q 0 lsr size_bits < before do
    let d = Sim.Ring.take q in
    let size = d land size_mask in
    t.queued_bytes <- t.queued_bytes - size;
    t.tx_packets <- t.tx_packets + 1;
    t.tx_bytes <- t.tx_bytes + size;
    if Obs.Trace.enabled t.trace then trace_departure t (d lsr size_bits)
  done

(* For readers: settles what left before now and returns the packets
   (or, with [~bytes:true], the bytes) departing exactly now. Those stay
   queued, so a read never changes what a later admission in the same
   nanosecond sees. *)
let departing_now t ~bytes =
  let now = Sim.Engine.now t.engine in
  settle t ~before:now;
  let q = t.departures in
  let n = ref 0 and acc = ref 0 in
  while !n < Sim.Ring.length q && Sim.Ring.get q !n lsr size_bits = now do
    acc := !acc + (if bytes then Sim.Ring.get q !n land size_mask else 1);
    incr n
  done;
  !acc

let queued_bytes t =
  let leaving = departing_now t ~bytes:true in
  t.queued_bytes - leaving

let tx_packets t =
  let leaving = departing_now t ~bytes:false in
  t.tx_packets + leaving

let tx_bytes t =
  let leaving = departing_now t ~bytes:true in
  t.tx_bytes + leaving

let create engine ~packets ~name ~rate_gbps ~extra_delay_ns ?pool ?(lossless = false) ~sink () =
  let trace = Sim.Engine.trace engine in
  Obs.Trace.register_process trace ~pid:Obs.Trace.net_pid "network";
  let tid = Obs.Trace.register_track trace ~pid:Obs.Trace.net_pid name in
  (* Unused stream: every later split of the engine's RNG follows this draw. *)
  ignore (Sim.Rng.split (Sim.Engine.rng engine));
  let t =
    {
      engine;
      name;
      rate_gbps;
      extra_delay_ns;
      pool;
      lossless;
      packets;
      departures = Sim.Ring.create ~capacity:64 ();
      busy_until = Sim.Time.zero;
      arrive = Sim.Engine.no_handler;
      queued_bytes = 0;
      admitted_packets = 0;
      admitted_bytes = 0;
      tx_packets = 0;
      tx_bytes = 0;
      dropped_packets = 0;
      dropped_bytes = 0;
      pause_events = 0;
      trace;
      tid;
    }
  in
  t.arrive <- Sim.Engine.handler engine ~layer:Link (fun h -> sink (Packet.get packets h));
  Obs.Trace.on_read trace (fun () -> settle t ~before:(Sim.Engine.now engine));
  Obs.Metrics.counter (Sim.Engine.metrics engine) ~name:"port.tx_pkts"
    ~labels:[ ("port", name) ]
    (fun () -> tx_packets t);
  t

let send t pkt =
  let size = pkt.Packet.size_bytes in
  if size > size_mask then invalid_arg "Port.send: packet larger than 64 KiB";
  let now = Sim.Engine.now t.engine in
  (* A departure at [now] is still queued for this admission. *)
  settle t ~before:now;
  let admitted =
    match t.pool with
    | None -> true
    | Some pool ->
        Buffer_pool.settle pool ~before:now;
        let ok = Buffer_pool.admit pool ~port_queued_bytes:t.queued_bytes ~size in
        if (not ok) && t.lossless then begin
          (* PFC: a lossless fabric pauses the sender instead of dropping;
             modeled as forced admission with the pause counted. Pause
             propagation (HOL blocking, deadlocks) is out of scope. *)
          t.pause_events <- t.pause_events + 1;
          if Obs.Trace.enabled t.trace then
            Obs.Trace.instant t.trace ~ts:now ~cat:"net" ~name:"pause" ~pid:Obs.Trace.net_pid
              ~tid:t.tid
              [ ("id", Obs.Trace.I pkt.Packet.trace_id) ];
          Buffer_pool.admit ~force:true pool ~port_queued_bytes:t.queued_bytes ~size
        end
        else ok
  in
  if admitted then begin
    (* FIFO service in closed form: the packet starts serializing when the
       port frees up and reaches the far end [extra_delay_ns] after its
       last bit leaves. *)
    let depart =
      Sim.Time.add (Int.max now t.busy_until) (Sim.Time.of_bytes_at_gbps size t.rate_gbps)
    in
    t.busy_until <- depart;
    Sim.Ring.push t.departures ((depart lsl size_bits) lor size);
    (match t.pool with Some pool -> Buffer_pool.release_at pool ~at:depart ~size | None -> ());
    t.queued_bytes <- t.queued_bytes + size;
    t.admitted_packets <- t.admitted_packets + 1;
    t.admitted_bytes <- t.admitted_bytes + size;
    if Obs.Trace.enabled t.trace then begin
      Obs.Trace.instant t.trace ~ts:now ~cat:"net" ~name:"enq" ~pid:Obs.Trace.net_pid
        ~tid:t.tid
        [ ("id", Obs.Trace.I pkt.Packet.trace_id); ("size", Obs.Trace.I size) ];
      trace_enqueue t now
    end;
    Sim.Engine.post t.engine
      (Sim.Time.add depart t.extra_delay_ns)
      t.arrive (Packet.intern t.packets pkt);
    true
  end
  else begin
    t.dropped_packets <- t.dropped_packets + 1;
    t.dropped_bytes <- t.dropped_bytes + size;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~ts:now ~cat:"net" ~name:"drop" ~pid:Obs.Trace.net_pid
        ~tid:t.tid
        [
          ("id", Obs.Trace.I pkt.Packet.trace_id);
          ("size", Obs.Trace.I size);
          ("reason", Obs.Trace.S "buffer");
        ];
    Packet.free pkt;
    false
  end

let name t = t.name
let pool t = t.pool

let queue_delay t = Sim.Time.of_bytes_at_gbps (queued_bytes t) t.rate_gbps

let dropped_packets t = t.dropped_packets
let dropped_bytes t = t.dropped_bytes
let pause_events t = t.pause_events

let audit t =
  settle t ~before:(Sim.Engine.now t.engine);
  let q = t.departures in
  let n = Sim.Ring.length q in
  let bytes = ref 0 and ordered = ref true in
  for i = 0 to n - 1 do
    let d = Sim.Ring.get q i in
    bytes := !bytes + (d land size_mask);
    if i > 0 && d lsr size_bits < Sim.Ring.get q (i - 1) lsr size_bits then ordered := false
  done;
  let v = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> v := (t.name ^ ": " ^ s) :: !v) fmt in
  if t.admitted_packets <> t.tx_packets + n then
    violate "admitted %d packets, departed %d + queued %d" t.admitted_packets t.tx_packets n;
  if t.admitted_bytes <> t.tx_bytes + t.queued_bytes then
    violate "admitted %d bytes, departed %d + queued %d" t.admitted_bytes t.tx_bytes
      t.queued_bytes;
  if !bytes <> t.queued_bytes then
    violate "queued_bytes %d, but the queue holds %d" t.queued_bytes !bytes;
  if not !ordered then violate "departures out of order";
  if n > 0 && Sim.Ring.get q (n - 1) lsr size_bits <> t.busy_until then
    violate "last departure is not busy_until %d" t.busy_until;
  List.rev !v
