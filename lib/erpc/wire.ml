type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      mutable hdr : Pkthdr.t;
      mutable data : bytes;
      mutable off : int;
      mutable len : int;
    }

(* Free-list of recycled packets, linked through [Packet.pool_next] and
   terminated by [Packet.nil]. Each endpoint owns one pool, so in steady
   state the TX path allocates no packet records at all: a recycled record
   (and its [Pkt] body) is rewritten in place. *)
type pool = {
  mutable head : Netsim.Packet.t;
  mutable release : Netsim.Packet.t -> unit;
}

let empty_hdr =
  {
    Pkthdr.req_type = 0;
    msg_size = 0;
    dest_session = 0;
    pkt_type = Pkthdr.Cr;
    pkt_num = 0;
    req_num = 0;
    token = 0;
    ecn_echo = false;
  }

let create_pool () =
  let p =
    { head = Netsim.Packet.nil; release = Netsim.Packet.no_release }
  in
  p.release <-
    (fun pkt ->
      (* Scrub references so a parked packet pins neither the payload
         bytes (somebody's msgbuf) nor the last header. *)
      (match pkt.Netsim.Packet.body with
      | Pkt r ->
          r.data <- Bytes.empty;
          r.off <- 0;
          r.len <- 0;
          r.hdr <- empty_hdr
      | _ -> ());
      pkt.Netsim.Packet.pool_next <- p.head;
      p.head <- pkt);
  p

let make ?pool ~src_host ~dst_host ~dst_rpc ~wire_overhead ~flow ~hdr ?payload () =
  let data, off, len =
    match payload with None -> (Bytes.empty, 0, 0) | Some (b, o, l) -> (b, o, l)
  in
  let size_bytes = len + wire_overhead in
  match pool with
  | Some p when p.head != Netsim.Packet.nil ->
      let pkt = p.head in
      p.head <- pkt.Netsim.Packet.pool_next;
      pkt.Netsim.Packet.pool_next <- Netsim.Packet.nil;
      (match pkt.Netsim.Packet.body with
      | Pkt r ->
          r.dst_rpc <- dst_rpc;
          r.hdr <- hdr;
          r.data <- data;
          r.off <- off;
          r.len <- len
      | _ -> assert false);
      Netsim.Packet.reinit pkt ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow;
      pkt
  | _ ->
      let pkt =
        Netsim.Packet.make ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow
          (Pkt { dst_rpc; hdr; data; off; len })
      in
      (match pool with Some p -> pkt.Netsim.Packet.release <- p.release | None -> ());
      pkt

let verify pkt = not pkt.Netsim.Packet.corrupted

let corrupt ?bit pkt =
  (* The payload is a zero-copy slice of the sender's live msgbuf, so bit
     flips cannot be applied to the backing bytes without corrupting the
     sender's memory. Modeled instead as a per-frame error flag, which is
     what the wire checksum reduces to in a simulator that models error
     detection rather than adversarial collisions. *)
  ignore bit;
  pkt.Netsim.Packet.corrupted <- true

let flow_hash ~src_host ~dst_host ~sn =
  let h = (src_host * 1_000_003) + (dst_host * 7_919) + (sn * 131) in
  h land max_int
