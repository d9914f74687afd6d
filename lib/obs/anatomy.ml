(* RPC latency anatomy: decompose sampled end-to-end request latencies into
   Table-3-style components by post-processing a trace.

   Milestones joined per request (client pid/tid, session sn, req number):

     T0 req_start        client sslot begins the request
     N1 nic tx (req)     client posts the request packet to the NIC
     A1 net enq (req)    packet admitted to the first fabric port
     B1 net deliver      packet handed to the server host
     R1 nic rx (req)     server NIC fills the RX descriptor
     N2 nic tx (resp)    server posts the response packet
     A2/B2/R2            same stations for the response
     T6 req_done         client completes the request

   Each direction is one *leg*. A leg that crossed the wire uses the
   N/A/B/R stations above; an intra-host leg over the shared-memory
   transport has only two stations — "shm tx" (descriptor published) and
   "shm rx" (packet visible to the receiver's poll) — and its entire
   transit time is the ring/guard component, with NIC/wire/switch exactly
   zero. Mixed requests (one leg wired, one over shm) join fine; each leg
   picks whichever milestone set its packet produced.

   Components (all in ns; stations per leg as above):
     req_ser    = typed request encode on the client (codec span before leg 1)
     client_tx  = leg1.start - T0 - pacing - req_ser  remaining client sw
     pacing     = wheel fire - insert pacing-wheel residency (0 if bypassed)
     nic        = (A-N)+(R-B) summed over wired legs   NIC tx/rx latency
     wire       = predicted serialization + propagation + switch latency
     switch_q   = (B-A) - wire summed over wired legs  fabric queueing
     ring       = shm rx - shm tx summed over shm legs (hop + guards + FIFO)
     req_deser  = typed request decode on the server (codec span in leg gap)
     resp_ser   = typed response encode on the server (codec span in leg gap)
     server     = leg2.start - leg1.end - req_deser - resp_ser
     resp_deser = typed response decode on the client (codec span after leg 2)
     client_rx  = T6 - leg2.end - resp_deser          remaining client software

   The sum telescopes exactly to T6 - T0: every component is a difference
   of adjacent milestones except wire/switch_q (which split each wired
   in-fabric interval without remainder) and the codec terms (which are
   carved out of the enclosing software interval and subtracted from it).
   A shm leg contributes exactly leg.end - leg.start as ring, so the
   invariant is transport-independent. Untyped workloads have no codec
   spans; those terms are zero. *)

type breakdown = {
  host : int;  (** client host *)
  sn : int;  (** client session number *)
  req : int;  (** request number *)
  total_ns : int;
  req_ser_ns : int;
  client_tx_ns : int;
  pacing_ns : int;
  nic_ns : int;
  wire_ns : int;
  switch_ns : int;
  ring_ns : int;
  req_deser_ns : int;
  resp_ser_ns : int;
  server_ns : int;
  resp_deser_ns : int;
  client_rx_ns : int;
}

let kind_req = 0
let kind_resp = 1
let kind_cr = 2
let kind_rfr = 3

let ai k args =
  match List.assoc_opt k args with Some (Trace.I n) -> Some n | _ -> None

let aie k args = match ai k args with Some n -> n | None -> -1

type pkt_info = { p_ts : int; p_id : int; p_size : int; p_dst : int }

(* A "codec" span ("ser"/"deser" Complete event) available for attribution
   to at most one request. *)
type span = { s_ts : int; s_dur : int; mutable s_used : bool }

(* Per-direction transit: either a wired leg (NIC/fabric stations) or an
   intra-host shared-memory leg (ring stations); components sum to
   [l_end - l_start] either way. *)
type leg = {
  l_start : int;
  l_end : int;
  l_nic : int;
  l_wire : int;
  l_switch : int;
  l_ring : int;
}

let analyze ~wire_ns evs =
  (* Milestone tables keyed by trace packet id. *)
  let nic_tx = Hashtbl.create 256 in
  let nic_rx = Hashtbl.create 256 in
  let net_enq = Hashtbl.create 256 in
  let net_del = Hashtbl.create 256 in
  let shm_tx = Hashtbl.create 64 in
  let shm_rx = Hashtbl.create 64 in
  let wh_ins = Hashtbl.create 64 in
  let wh_fire = Hashtbl.create 64 in
  let first tbl id ts = if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id ts in
  (* Request packets keyed (pid, tid, sn, req); responses keyed
     (dst host, dest session, req). Multi-packet requests/responses are
     excluded — a single latency can't be attributed to one wire crossing. *)
  let req_pkt = Hashtbl.create 256 in
  let resp_pkt = Hashtbl.create 256 in
  let multi = Hashtbl.create 16 in
  let starts = Hashtbl.create 256 in
  let dones = Hashtbl.create 256 in
  (* Codec spans per (pid, name), in trace order (ascending ts). *)
  let codec = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.ev) ->
      match (e.cat, e.name) with
      | "nic", "tx" -> first nic_tx (aie "id" e.args) e.ts
      | "nic", "rx" -> first nic_rx (aie "id" e.args) e.ts
      | "shm", "tx" -> first shm_tx (aie "id" e.args) e.ts
      | "shm", "rx" -> first shm_rx (aie "id" e.args) e.ts
      | "net", "enq" -> first net_enq (aie "id" e.args) e.ts
      | "net", "deliver" -> first net_del (aie "id" e.args) e.ts
      | "wheel", "insert" -> first wh_ins (aie "id" e.args) e.ts
      | "wheel", "fire" -> first wh_fire (aie "id" e.args) e.ts
      | "codec", (("ser" | "deser") as name) ->
          let dur = match e.phase with Trace.Complete d -> d | _ -> 0 in
          let key = (e.pid, name) in
          let prev = try Hashtbl.find codec key with Not_found -> [] in
          Hashtbl.replace codec key ({ s_ts = e.ts; s_dur = dur; s_used = false } :: prev)
      | "pkt", "info" ->
          let id = aie "id" e.args
          and kind = aie "kind" e.args
          and num = aie "num" e.args
          and req = aie "req" e.args
          and dst = aie "dst" e.args
          and ssn = aie "ssn" e.args
          and dsn = aie "dsn" e.args
          and size = aie "size" e.args in
          let info = { p_ts = e.ts; p_id = id; p_size = size; p_dst = dst } in
          if kind = kind_req then
            if num = 0 then first req_pkt (e.pid, e.tid, ssn, req) info
            else Hashtbl.replace multi (`Req (e.pid, e.tid, ssn, req)) ()
          else if kind = kind_resp then
            if num = 0 then first resp_pkt (dst, dsn, req) info
            else Hashtbl.replace multi (`Resp (dst, dsn, req)) ()
      | "sslot", "req_start" ->
          first starts (e.pid, e.tid, aie "sn" e.args, aie "req" e.args) e.ts
      | "sslot", "req_done" ->
          first dones (e.pid, e.tid, aie "sn" e.args, aie "req" e.args) e.ts
      | _ -> ())
    evs;
  (* Spans were accumulated newest-first; restore trace order. *)
  let codec_sorted = Hashtbl.create (max 1 (Hashtbl.length codec)) in
  Hashtbl.iter
    (fun key spans -> Hashtbl.replace codec_sorted key (List.rev spans))
    codec;
  (* Claim the latest still-unclaimed span of [name] on [pid] lying wholly
     inside [lo, hi]. Requests are processed in descending start order, so
     latest-first claiming pairs spans with the request whose window they
     belong to even when windows of back-to-back requests overlap. *)
  let claim ~pid ~name ~lo ~hi =
    match Hashtbl.find_opt codec_sorted (pid, name) with
    | None -> 0
    | Some spans ->
        let best =
          List.fold_left
            (fun acc s ->
              if (not s.s_used) && s.s_ts >= lo && s.s_ts + s.s_dur <= hi then Some s
              else acc)
            None spans
        in
        (match best with
        | Some s ->
            s.s_used <- true;
            s.s_dur
        | None -> 0)
  in
  (* Assemble one leg from whichever milestone set the packet produced:
     the shm pair for an intra-host crossing, the NIC/fabric quartet for
     a wired one. *)
  let leg_of id size =
    match (Hashtbl.find_opt shm_tx id, Hashtbl.find_opt shm_rx id) with
    | Some stx, Some srx ->
        Some
          {
            l_start = stx;
            l_end = srx;
            l_nic = 0;
            l_wire = 0;
            l_switch = 0;
            l_ring = srx - stx;
          }
    | _ -> (
        match
          ( Hashtbl.find_opt nic_tx id,
            Hashtbl.find_opt net_enq id,
            Hashtbl.find_opt net_del id,
            Hashtbl.find_opt nic_rx id )
        with
        | Some n, Some a, Some b, Some r ->
            let wire = wire_ns size in
            Some
              {
                l_start = n;
                l_end = r;
                l_nic = a - n + (r - b);
                l_wire = wire;
                l_switch = b - a - wire;
                l_ring = 0;
              }
        | _ -> None)
  in
  (* First join all milestones; claiming happens in a deterministic pass. *)
  let raw = ref [] in
  Hashtbl.iter
    (fun ((pid, tid, sn, req) as key) t0 ->
      let ( let* ) o f = match o with Some v -> f v | None -> () in
      let* t6 = Hashtbl.find_opt dones key in
      let* rq = Hashtbl.find_opt req_pkt key in
      let host = pid - 1 in
      let* rp = Hashtbl.find_opt resp_pkt (host, sn, req) in
      if
        Hashtbl.mem multi (`Req (pid, tid, sn, req))
        || Hashtbl.mem multi (`Resp (host, sn, req))
      then ()
      else begin
        let* l1 = leg_of rq.p_id rq.p_size in
        let* l2 = leg_of rp.p_id rp.p_size in
        raw := (pid, sn, req, t0, t6, rq, rp, l1, l2) :: !raw
      end)
    starts;
  let raw =
    List.sort
      (fun (p1, s1, r1, t1, _, _, _, _, _) (p2, s2, r2, t2, _, _, _, _, _) ->
        match compare t2 t1 with
        | 0 -> compare (p2, s2, r2) (p1, s1, r1)
        | c -> c)
      !raw
  in
  let out =
    List.map
      (fun (pid, sn, req, t0, t6, rq, _rp, l1, l2) ->
        let host = pid - 1 in
        let pacing =
          match
            (Hashtbl.find_opt wh_ins rq.p_id, Hashtbl.find_opt wh_fire rq.p_id)
          with
          | Some i, Some f -> f - i
          | _ -> 0
        in
        let server_pid = rq.p_dst + 1 in
        let req_ser = claim ~pid ~name:"ser" ~lo:t0 ~hi:l1.l_start in
        let resp_deser = claim ~pid ~name:"deser" ~lo:l2.l_end ~hi:t6 in
        let req_deser =
          claim ~pid:server_pid ~name:"deser" ~lo:l1.l_end ~hi:l2.l_start
        in
        let resp_ser =
          claim ~pid:server_pid ~name:"ser" ~lo:l1.l_end ~hi:l2.l_start
        in
        {
          host;
          sn;
          req;
          total_ns = t6 - t0;
          req_ser_ns = req_ser;
          client_tx_ns = l1.l_start - t0 - pacing - req_ser;
          pacing_ns = pacing;
          nic_ns = l1.l_nic + l2.l_nic;
          wire_ns = l1.l_wire + l2.l_wire;
          switch_ns = l1.l_switch + l2.l_switch;
          ring_ns = l1.l_ring + l2.l_ring;
          req_deser_ns = req_deser;
          resp_ser_ns = resp_ser;
          server_ns = l2.l_start - l1.l_end - req_deser - resp_ser;
          resp_deser_ns = resp_deser;
          client_rx_ns = t6 - l2.l_end - resp_deser;
        })
      raw
  in
  List.sort
    (fun a b ->
      match compare a.host b.host with
      | 0 -> ( match compare a.sn b.sn with 0 -> compare a.req b.req | c -> c)
      | c -> c)
    out

let components b =
  [
    ("req serialize", b.req_ser_ns);
    ("client tx", b.client_tx_ns);
    ("pacing wheel", b.pacing_ns);
    ("NIC", b.nic_ns);
    ("wire", b.wire_ns);
    ("switch queue", b.switch_ns);
    ("ring/guard", b.ring_ns);
    ("req deserialize", b.req_deser_ns);
    ("resp serialize", b.resp_ser_ns);
    ("server", b.server_ns);
    ("resp deserialize", b.resp_deser_ns);
    ("client rx", b.client_rx_ns);
  ]

let sum_components b =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (components b)

let pp_table fmt bds =
  let n = List.length bds in
  if n = 0 then Format.fprintf fmt "(no complete RPCs in trace)@."
  else begin
    let mean f =
      float_of_int (List.fold_left (fun acc b -> acc + f b) 0 bds) /. float_of_int n
    in
    let total = mean (fun b -> b.total_ns) in
    Format.fprintf fmt "Latency anatomy over %d sampled RPCs (mean %.0f ns):@." n total;
    Format.fprintf fmt "  %-16s %10s %7s@." "component" "mean(ns)" "share";
    List.iter
      (fun (label, f) ->
        let m = mean f in
        Format.fprintf fmt "  %-16s %10.1f %6.1f%%@." label m
          (if total > 0. then 100. *. m /. total else 0.))
      [
        ("req serialize", fun b -> b.req_ser_ns);
        ("client tx", fun b -> b.client_tx_ns);
        ("pacing wheel", fun b -> b.pacing_ns);
        ("NIC", fun b -> b.nic_ns);
        ("wire", fun b -> b.wire_ns);
        ("switch queue", fun b -> b.switch_ns);
        ("ring/guard", fun b -> b.ring_ns);
        ("req deserialize", fun b -> b.req_deser_ns);
        ("resp serialize", fun b -> b.resp_ser_ns);
        ("server", fun b -> b.server_ns);
        ("resp deserialize", fun b -> b.resp_deser_ns);
        ("client rx", fun b -> b.client_rx_ns);
      ];
    Format.fprintf fmt "  %-16s %10.1f %6.1f%%@." "total" total 100.
  end

(* {2 Tail attribution} *)

type attribution = {
  samples : int;
  p50_total_ns : int;
  p99_total_ns : int;
  p999_total_ns : int;
  p50_ns : (string * int) list;
  p99_ns : (string * int) list;
  p50_dominant : string;
  p99_dominant : string;
}

let attribute bds =
  match bds with
  | [] -> None
  | _ ->
      let n = List.length bds in
      let totals = Array.of_list (List.map (fun b -> b.total_ns) bds) in
      Array.sort compare totals;
      (* Nearest-rank percentiles over the sorted totals. *)
      let pct p =
        let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
        totals.(max 0 (min (n - 1) (rank - 1)))
      in
      let p50 = pct 50. and p99 = pct 99. and p999 = pct 99.9 in
      let band keep =
        let members = List.filter (fun b -> keep b.total_ns) bds in
        let k = List.length members in
        (* Non-empty by construction: the thresholds are realized totals. *)
        List.map
          (fun (label, _) ->
            let sum =
              List.fold_left
                (fun acc b -> acc + List.assoc label (components b))
                0 members
            in
            (label, sum / k))
          (components (List.hd bds))
      in
      let body = band (fun t -> t <= p50) in
      let tail = band (fun t -> t >= p99) in
      let dominant comps =
        fst
          (List.fold_left
             (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv))
             ("", min_int) comps)
      in
      Some
        {
          samples = n;
          p50_total_ns = p50;
          p99_total_ns = p99;
          p999_total_ns = p999;
          p50_ns = body;
          p99_ns = tail;
          p50_dominant = dominant body;
          p99_dominant = dominant tail;
        }

let attribution_to_json a =
  let share total v =
    if total > 0 then float_of_int v /. float_of_int total else 0.
  in
  let p50_sum = List.fold_left (fun acc (_, v) -> acc + v) 0 a.p50_ns in
  let p99_sum = List.fold_left (fun acc (_, v) -> acc + v) 0 a.p99_ns in
  Json.Obj
    [
      ("samples", Json.Int a.samples);
      ("p50_total_ns", Json.Int a.p50_total_ns);
      ("p99_total_ns", Json.Int a.p99_total_ns);
      ("p999_total_ns", Json.Int a.p999_total_ns);
      ("p50_dominant", Json.Str a.p50_dominant);
      ("p99_dominant", Json.Str a.p99_dominant);
      ( "components",
        Json.Arr
          (List.map2
             (fun (label, v50) (label99, v99) ->
               assert (label = label99);
               Json.Obj
                 [
                   ("component", Json.Str label);
                   ("p50_ns", Json.Int v50);
                   ("p99_ns", Json.Int v99);
                   ("p50_share", Json.Float (share p50_sum v50));
                   ("p99_share", Json.Float (share p99_sum v99));
                 ])
             a.p50_ns a.p99_ns) );
    ]
