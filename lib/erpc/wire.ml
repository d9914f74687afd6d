type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      hdr : Pkthdr.t;
      mutable data : bytes;
      mutable off : int;
      mutable len : int;
    }

(* Free-list of recycled packets: a stack of their handles. Each endpoint
   owns one pool, so in steady state the TX path allocates nothing and
   stores no pointer beyond the payload slice: a recycled record, its
   [Pkt] body and the header inside it are rewritten in place, and the
   record keeps the handle it was interned with when the pool made it. *)
type pool = {
  packets : Netsim.Packet.table;
  mutable parked : int array;
  mutable n_parked : int;
  mutable release : Netsim.Packet.t -> unit;
}

let create_pool packets =
  let p = { packets; parked = Array.make 16 0; n_parked = 0; release = Netsim.Packet.no_release } in
  p.release <-
    (fun pkt ->
      (* Scrub the payload reference so a parked packet does not pin
         somebody's msgbuf. *)
      (match pkt.Netsim.Packet.body with
      | Pkt r -> if r.data != Bytes.empty then r.data <- Bytes.empty
      | _ -> ());
      if p.n_parked = Array.length p.parked then begin
        let a = Array.make (2 * p.n_parked) 0 in
        Array.blit p.parked 0 a 0 p.n_parked;
        p.parked <- a
      end;
      p.parked.(p.n_parked) <- pkt.Netsim.Packet.handle;
      p.n_parked <- p.n_parked + 1);
  p

let fresh_body () =
  Pkt
    {
      dst_rpc = 0;
      hdr =
        {
          Pkthdr.req_type = 0;
          msg_size = 0;
          dest_session = 0;
          pkt_type = Pkthdr.Cr;
          pkt_num = 0;
          req_num = 0;
          token = 0;
        };
      data = Bytes.empty;
      off = 0;
      len = 0;
    }

let make pool ~src_host ~dst_host ~dst_rpc ~wire_overhead ~flow ~req_type ~msg_size
    ~dest_session ~pkt_type ~pkt_num ~req_num ~token ~data ~off ~len =
  let size_bytes = len + wire_overhead in
  let pkt =
    if pool.n_parked > 0 then begin
      pool.n_parked <- pool.n_parked - 1;
      let pkt = Netsim.Packet.get pool.packets pool.parked.(pool.n_parked) in
      Netsim.Packet.reinit pkt ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow;
      pkt
    end
    else begin
      let pkt =
        Netsim.Packet.make ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow
          (fresh_body ())
      in
      pkt.Netsim.Packet.release <- pool.release;
      ignore (Netsim.Packet.intern pool.packets pkt);
      pkt
    end
  in
  (match pkt.Netsim.Packet.body with
  | Pkt r ->
      r.dst_rpc <- dst_rpc;
      let h = r.hdr in
      h.req_type <- req_type;
      h.msg_size <- msg_size;
      h.dest_session <- dest_session;
      h.pkt_type <- pkt_type;
      h.pkt_num <- pkt_num;
      h.req_num <- req_num;
      h.token <- token;
      if r.data != data then r.data <- data;
      r.off <- off;
      r.len <- len
  | _ -> assert false);
  pkt

let verify pkt = not pkt.Netsim.Packet.corrupted

let flow_hash ~src_host ~dst_host ~sn =
  let h = (src_host * 1_000_003) + (dst_host * 7_919) + (sn * 131) in
  h land max_int
