(* Intra-host shared-memory transport (MemRPC-style).

   Co-located endpoints exchange packets through a pair of fixed-slot SPSC
   message rings per direction instead of the NIC: no wire serialization,
   no switch traversal, one cache-coherent interconnect hop. Two handoff
   disciplines are modeled per message:

   - the *serialize* path copies the payload into the ring slot (charged
     per byte like any memcpy), after which the sender may do anything
     with its buffer — the receiver owns a private copy;
   - the *share* path passes a pointer descriptor (flat per-descriptor
     cost) but pays the safety charges shared memory demands: the sender
     seals the buffer on send (content guard), the receiver unseals and
     runs an ownership-transfer check on receive. A sender that mutates
     an in-flight shared buffer is detected deterministically at unseal
     time: the packet is delivered marked corrupted, so the wire
     protocol's checksum-drop/retransmission machinery recovers exactly
     as it would from a damaged frame.

   The transport is a *mux*: each endpoint wraps the endpoint's wire
   device ([Nic.t]) and routes per packet — co-located destinations take the
   ring path, everything else the wire — so one Rpc endpoint serves mixed
   local/remote session sets. The RQ size is the inner device's; the
   ring path never drops (a full destination ring backpressures the
   sender with stall latency instead).

   Layering: this library sits on the NIC, below [Transport.Iface], and
   cannot see eRPC's packet body type, so the fabric injects [hooks] for the two
   things the ring path must do with a packet — find the destination Rpc
   id + payload slice, and retarget the payload at a serialized copy. *)

type mode = Serialize | Share | Auto

type costs = {
  serialize_ns : int -> int;
      (* claim + publish a slot and copy n payload bytes into it *)
  share_tx_ns : int;  (* claim + publish a pointer descriptor + seal *)
  share_rx_ns : int;  (* unseal + ownership-transfer check *)
  ring_post_ns : int;  (* re-arm one consumed ring slot *)
}

type view = { dst_rpc : int; data : bytes; off : int; len : int }

type hooks = {
  view : Netsim.Packet.t -> view option;
      (* [None] for packet bodies the ring path cannot carry *)
  set_payload : Netsim.Packet.t -> bytes -> unit;
      (* retarget the payload at a private copy (offset 0, same length) *)
}

type endpoint = {
  engine : Sim.Engine.t;
  hub : hub;
  host : int;
  inner : Nic.t;
  colocated : int -> bool;
  cpu : Sim.Cpu.t;  (* the owning dispatch thread: sender-side CPU work *)
  mode : mode;
  slots : int;
  hop_ns : int;
  costs : costs;
  rx_ring : Sim.Ring.t;  (* packet handles *)
  (* Handoffs published to this ring but not yet visible: each delivery
     event carries its packet's handle, and since deliveries into one ring
     run in publish order, their seals wait here in that order ([copied]
     for a serialized payload). *)
  fly_seals : Sim.Ring.t;
  mutable rx_done : Sim.Engine.handler;
  mutable tx_done : Sim.Engine.handler;
  mutable tx_deferred : Sim.Engine.handler;
  mutable rx_notify : unit -> unit;
  mutable rx_last_delivery : Sim.Time.t;
  mutable tx_last_done : Sim.Time.t;
  mutable shm_tx_pending : int;
  (* rx_burst provenance, so replenish re-arms the right device *)
  mutable pending_inner_rx : int;
  mutable pending_shm_rx : int;
  mutable shm_tx_packets : int;
  mutable shm_rx_packets : int;
  mutable shared_tx : int;
  mutable serialized_tx : int;
  mutable guard_faults : int;
  mutable ring_stalls : int;
  trace : Obs.Trace.t;
  pid : int;
  tid : int;  (* the host's per-endpoint "shm" interconnect track *)
}

and hub = {
  hooks : hooks;
  packets : Netsim.Packet.table;
  endpoints : (int * int, endpoint) Hashtbl.t;  (* (host, rpc_id) -> ring *)
  mutable alive : int -> bool;
}

(* {2 Hub} *)

let create_hub ~hooks ~packets () =
  { hooks; packets; endpoints = Hashtbl.create 16; alive = (fun _ -> true) }

let set_alive hub f = hub.alive <- f

(* {2 Seal guard}

   FNV-1a over the payload slice, truncated to a nonnegative int. The
   seal is recorded when the descriptor is published and re-derived at
   unseal time; any in-flight mutation of a shared buffer changes it. A
   length-only payload ({!Netsim.Packet.length_only}) seals as that many
   zero bytes. *)

(* The 64-bit FNV offset basis truncated to OCaml's 63-bit int. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

(* The seal of a payload that was copied, not shared: no guard. *)
let copied = -1

let seal_of { data; off; len; _ } =
  let h = ref fnv_offset in
  if data == Netsim.Packet.length_only then
    for _ = 1 to len do
      h := !h * fnv_prime
    done
  else
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get data i)) * fnv_prime
    done;
  !h land max_int

(* {2 The ring path} *)

let trace_shm t name pkt =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace ~ts:(Sim.Engine.now t.engine) ~cat:"shm" ~name
      ~pid:t.pid ~tid:t.tid
      [ ("id", Obs.Trace.I pkt.Netsim.Packet.trace_id) ]

(* Receiver-side completion: verify the seal (share path), then make the
   packet visible to the receiver's poll loop. Deliveries into a crashed
   process vanish, exactly like network deliveries do. *)
let rx_complete t h =
  let seal = Sim.Ring.take t.fly_seals in
  let pkt = Netsim.Packet.get t.hub.packets h in
  if not (t.hub.alive t.host) then Netsim.Packet.free pkt
  else begin
    (if seal <> copied then
       match t.hub.hooks.view pkt with
       | Some v ->
           if seal_of v <> seal then begin
             (* Ownership-transfer violation: the sender mutated the
                shared buffer after sealing it. Surfaced exactly like a
                checksum mismatch, so recovery is the protocol's normal
                corrupt-drop + retransmission. *)
             t.guard_faults <- t.guard_faults + 1;
             pkt.Netsim.Packet.corrupted <- true
           end
       | None -> ());
    t.shm_rx_packets <- t.shm_rx_packets + 1;
    trace_shm t "rx" pkt;
    let was_empty = Sim.Ring.is_empty t.rx_ring in
    Sim.Ring.push t.rx_ring h;
    if was_empty then t.rx_notify ()
  end

(* A length-only payload has no sender memory to copy from: it stays
   length-only, and the receiver reads the same zeros. *)
let serialize_tx t pkt (v : view) =
  t.serialized_tx <- t.serialized_tx + 1;
  if v.len > 0 && v.data != Netsim.Packet.length_only then
    t.hub.hooks.set_payload pkt (Bytes.sub v.data v.off v.len)

let shm_tx t dst pkt (v : view) =
  let share =
    v.len > 0
    &&
    match t.mode with
    | Serialize -> false
    | Share -> true
    | Auto ->
        t.costs.share_tx_ns + t.costs.share_rx_ns <= t.costs.serialize_ns v.len
  in
  let tx_work, rx_guard =
    if share then (t.costs.share_tx_ns, t.costs.share_rx_ns)
    else (t.costs.serialize_ns v.len, 0)
  in
  ignore (Sim.Cpu.charge t.cpu tx_work);
  let seal =
    if share then begin
      t.shared_tx <- t.shared_tx + 1;
      seal_of v
    end
    else begin
      serialize_tx t pkt v;
      copied
    end
  in
  t.shm_tx_packets <- t.shm_tx_packets + 1;
  t.shm_tx_pending <- t.shm_tx_pending + 1;
  trace_shm t "tx" pkt;
  (* Backpressure, not loss: while the destination ring is full the slot
     claim spins on the consumer, one interconnect hop per excess
     occupied slot. *)
  let backlog = Sim.Ring.length dst.rx_ring + Sim.Ring.length dst.fly_seals in
  let stall =
    if backlog >= dst.slots then (backlog - dst.slots + 1) * t.hop_ns else 0
  in
  if stall > 0 then t.ring_stalls <- t.ring_stalls + 1;
  let now = Sim.Engine.now t.engine in
  (* The sender's hand leaves the message once the copy/seal work (and
     any slot-claim spin) retires. *)
  let done_at = Sim.Time.add now (tx_work + stall) in
  if done_at > t.tx_last_done then t.tx_last_done <- done_at;
  Sim.Engine.post t.engine done_at t.tx_done 0;
  (* The message becomes visible after the interconnect hop plus the
     receiver-side guard work; delivery is FIFO per receiver across all
     co-located senders. *)
  let at =
    Int.max (Sim.Time.add done_at (t.hop_ns + rx_guard)) dst.rx_last_delivery
  in
  dst.rx_last_delivery <- at;
  Sim.Ring.push dst.fly_seals seal;
  Sim.Engine.post t.engine at dst.rx_done (Netsim.Packet.intern t.hub.packets pkt)

(* {2 The transport API ([Transport.Iface.S])} *)

let kind _ = "shm"
let rq_size t = Nic.rq_size t.inner

let colocated_tx t pkt =
  let now = Sim.Engine.now t.engine in
  match t.hub.hooks.view pkt with
  | Some v -> (
      match Hashtbl.find_opt t.hub.endpoints (pkt.Netsim.Packet.dst, v.dst_rpc) with
      | Some dst -> shm_tx t dst pkt v
      | None ->
          (* Co-located, but the peer never mapped a ring (e.g. it runs
             with shm disabled): fall back to the wire. *)
          Nic.tx_burst t.inner ~at:now pkt)
  | None -> Nic.tx_burst t.inner ~at:now pkt

(* The wire device takes a future entry time itself. A co-located packet
   waits for its entry time in an event of its own, because the
   receiver's ring interleaves several senders in delivery order. *)
let tx_burst t ~at pkt =
  if not (t.colocated pkt.Netsim.Packet.dst) then Nic.tx_burst t.inner ~at pkt
  else if at > Sim.Engine.now t.engine then
    Sim.Engine.post t.engine at t.tx_deferred (Netsim.Packet.intern t.hub.packets pkt)
  else colocated_tx t pkt

let tx_pending t = t.shm_tx_pending + Nic.tx_pending t.inner

let flush_time_ns t =
  let now = Sim.Engine.now t.engine in
  let shm_wait =
    if t.shm_tx_pending > 0 then Int.max 0 (Sim.Time.sub t.tx_last_done now) else 0
  in
  Int.max shm_wait (Nic.flush_time_ns t.inner)

let rx_burst t ~max f =
  let n = ref 0 in
  while !n < max && not (Sim.Ring.is_empty t.rx_ring) do
    incr n;
    t.pending_shm_rx <- t.pending_shm_rx + 1;
    f (Netsim.Packet.get t.hub.packets (Sim.Ring.take t.rx_ring))
  done;
  if !n < max then begin
    let m = Nic.rx_burst t.inner ~max:(max - !n) f in
    t.pending_inner_rx <- t.pending_inner_rx + m;
    n := !n + m
  end;
  !n

let rx_ring_depth t = Sim.Ring.length t.rx_ring + Nic.rx_ring_depth t.inner

let set_rx_notify t f =
  t.rx_notify <- f;
  Nic.set_rx_notify t.inner f

let replenish_rx t n =
  assert (n >= 0);
  let inner_n = Int.min n t.pending_inner_rx in
  t.pending_inner_rx <- t.pending_inner_rx - inner_n;
  let shm_n = Int.min (n - inner_n) t.pending_shm_rx in
  t.pending_shm_rx <- t.pending_shm_rx - shm_n;
  Nic.replenish_rx t.inner inner_n + (shm_n * t.costs.ring_post_ns)

(* Network ingress is always the wire device; ring deliveries bypass it. *)
let receive t pkt = Nic.receive t.inner pkt

let reset_rx t =
  while not (Sim.Ring.is_empty t.rx_ring) do
    Netsim.Packet.free (Netsim.Packet.get t.hub.packets (Sim.Ring.take t.rx_ring))
  done;
  t.pending_inner_rx <- 0;
  t.pending_shm_rx <- 0;
  Nic.reset_rx t.inner

let rx_packets t = t.shm_rx_packets + Nic.rx_packets t.inner
let tx_packets t = t.shm_tx_packets + Nic.tx_packets t.inner

(* The ring path never drops; only the wire device can. *)
let rx_dropped t = Nic.rx_dropped t.inner

type stats = {
  shm_tx : int;
  shm_rx : int;
  shared_tx : int;
  serialized_tx : int;
  guard_faults : int;
  ring_stalls : int;
}

let stats (t : endpoint) =
  {
    shm_tx = t.shm_tx_packets;
    shm_rx = t.shm_rx_packets;
    shared_tx = t.shared_tx;
    serialized_tx = t.serialized_tx;
    guard_faults = t.guard_faults;
    ring_stalls = t.ring_stalls;
  }

let create engine ~hub ~host ~rpc_id ~inner ~colocated ~cpu ~mode ~slots ~hop_ns
    ~costs () =
  let trace = Sim.Engine.trace engine in
  let pid = Obs.Trace.host_pid host in
  let tid = Obs.Trace.register_track trace ~pid (Printf.sprintf "shm%d" rpc_id) in
  let t =
    {
      engine;
      hub;
      host;
      inner;
      colocated;
      cpu;
      mode;
      slots = max 2 slots;
      hop_ns;
      costs;
      rx_ring = Sim.Ring.create ~capacity:64 ();
      fly_seals = Sim.Ring.create ();
      rx_done = Sim.Engine.no_handler;
      tx_done = Sim.Engine.no_handler;
      tx_deferred = Sim.Engine.no_handler;
      rx_notify = (fun () -> ());
      rx_last_delivery = Sim.Time.zero;
      tx_last_done = Sim.Time.zero;
      shm_tx_pending = 0;
      pending_inner_rx = 0;
      pending_shm_rx = 0;
      shm_tx_packets = 0;
      shm_rx_packets = 0;
      shared_tx = 0;
      serialized_tx = 0;
      guard_faults = 0;
      ring_stalls = 0;
      trace;
      pid;
      tid;
    }
  in
  t.rx_done <- Sim.Engine.handler engine ~layer:Shm (fun h -> rx_complete t h);
  t.tx_done <-
    Sim.Engine.handler engine ~layer:Shm (fun _ -> t.shm_tx_pending <- t.shm_tx_pending - 1);
  t.tx_deferred <-
    Sim.Engine.handler engine ~layer:Shm (fun h ->
        colocated_tx t (Netsim.Packet.get hub.packets h));
  (* Restart-friendly: a re-created endpoint at the same address simply
     remaps the ring (the old one died with its process). *)
  Hashtbl.replace hub.endpoints (host, rpc_id) t;
  t
