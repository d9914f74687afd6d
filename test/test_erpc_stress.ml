(* Stress tests for the rare-path machinery: the rate limiter under
   retransmission (Appendix C), and randomized protocol fuzzing across
   loss rates, RTOs and message sizes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo = Test_erpc_basic.(echo_req_type)

let with_transport transport (cfg : Erpc.Config.t) = { cfg with Erpc.Config.transport }

let deploy ?(transport = Erpc.Config.Raw_eth) ?config () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let config =
    with_transport transport
      (match config with Some c -> c | None -> Erpc.Config.of_cluster cluster)
  in
  let fabric = Erpc.Fabric.create ~config cluster in
  let handler_runs = ref 0 in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
      incr handler_runs;
      let req = Erpc.Req_handle.get_request h in
      let n = Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      if n > 0 then Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:n;
      Erpc.Req_handle.enqueue_response h resp);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  (fabric, client, sess, handler_runs)

let run fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

(* Appendix C: retransmitted packets can sit in the rate limiter; eRPC
   drops responses that arrive while such references exist. Force the
   session through the wheel by congesting it (rate pinned low), inject
   loss, and verify correctness survives the interaction. *)
let test_rate_limited_retransmissions tp () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let base = Erpc.Config.of_cluster cluster in
  (* Disable the bypass so every packet goes through the Carousel wheel,
     and keep the RTO short enough to fire while packets are wheeled. *)
  let config =
    {
      base with
      opts = { base.opts with rate_limiter_bypass = false };
      (* Zero additive increase keeps the pinned rate pinned; the RTO must
         exceed the ~435 us it takes to pace a 5-packet request at
         100 Mbps, or retransmission could never outrun the pacing (real
         eRPC's 5 ms RTO maintains the same relation to its rate floor). *)
      cc = { base.cc with add_rate_bps = 0. };
      rto_ns = 600_000;
    }
  in
  let fabric, client, sess, handler_runs = deploy ~transport:tp ~config () in
  (* Pin the session's rate to 100 Mbps so every packet is wheeled. *)
  (match sess.Erpc.Session.cc with
  | Some timely -> Erpc.Timely.set_rate_bps timely 100e6
  | None -> Alcotest.fail "expected a Timely controller");
  Netsim.Network.set_loss_prob (Erpc.Fabric.net fabric) 0.05;
  let n = 10 in
  let completed = ref 0 in
  let rec issue i =
    if i < n then begin
      let req = Erpc.Msgbuf.alloc ~max_size:5_000 in
      let resp = Erpc.Msgbuf.alloc ~max_size:5_000 in
      Erpc.Msgbuf.set_u32 req ~off:0 i;
      Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp ~cont:(fun r ->
          if Result.is_ok r then begin
            check_int "payload survives the wheel" i (Erpc.Msgbuf.get_u32 resp ~off:0);
            incr completed
          end;
          issue (i + 1))
    end
  in
  issue 0;
  run fabric 3_000.0;
  check_int "all complete through the rate limiter" n !completed;
  check_int "at-most-once held" n !handler_runs;
  check_bool "wheel actually used" true ((Erpc.Rpc.stats client).Erpc.Rpc_stats.wheel_inserts > 0);
  check_bool "retransmissions actually happened" true ((Erpc.Rpc.stats client).Erpc.Rpc_stats.retransmits > 0)

(* Randomized end-to-end fuzz: loss rate, RTO, credits and sizes all vary;
   the invariants never do. *)
let protocol_fuzz tp =
  let gen =
    QCheck2.Gen.(
      pair
        (pair
           (int_range 0 40 (* loss in tenths of a percent *))
           (int_range 200 5_000 (* rto in us *)))
        (pair
           (int_range 2 32 (* credits *))
           (list_size (int_range 1 8) (int_range 1 30_000 (* message sizes *)))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"protocol fuzz (loss x rto x credits x sizes)" ~count:25 gen
       (fun ((loss_tenths, rto_us), (credits, sizes)) ->
         let cluster = Transport.Cluster.cx5 ~nodes:2 () in
         let base = Erpc.Config.of_cluster ~credits cluster in
         let config = { base with rto_ns = rto_us * 1_000 } in
         let fabric, client, sess, handler_runs = deploy ~transport:tp ~config () in
         Netsim.Network.set_loss_prob (Erpc.Fabric.net fabric)
           (float_of_int loss_tenths /. 1_000.);
         let expected = List.length sizes in
         let completed = ref 0 in
         let pending = ref sizes in
         let rec issue () =
           match !pending with
           | [] -> ()
           | size :: rest ->
               pending := rest;
               let req = Erpc.Msgbuf.alloc ~max_size:size in
               let pattern =
                 String.init size (fun j -> Char.chr ((j + size) land 0xff))
               in
               Erpc.Msgbuf.write_string req ~off:0 pattern;
               let resp = Erpc.Msgbuf.alloc ~max_size:size in
               Erpc.Rpc.enqueue_request client sess ~req_type:echo ~req ~resp
                 ~cont:(fun r ->
                   (match r with
                   | Ok () when Erpc.Msgbuf.read_string resp ~off:0 ~len:size = pattern ->
                       incr completed
                   | _ -> ());
                   issue ())
         in
         issue ();
         run fabric 4_000.0;
         !completed = expected
         && !handler_runs = expected
         && sess.Erpc.Session.credits = sess.Erpc.Session.credit_limit
         && Erpc.Session.outstanding_packets sess = 0))

(* Sustained bidirectional churn with loss: both endpoints act as client
   and server simultaneously (the Fig 4 pattern) on a lossy link. *)
let test_bidirectional_churn_with_loss tp () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric =
    Erpc.Fabric.create ~config:(with_transport tp (Erpc.Config.of_cluster cluster)) cluster
  in
  let nexuses =
    Array.init 2 (fun host ->
        let nx = Erpc.Nexus.create fabric ~host () in
        Erpc.Nexus.register_handler nx ~req_type:echo ~mode:Erpc.Nexus.Dispatch (fun h ->
            Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:32));
        nx)
  in
  let rpcs = Array.map (fun nx -> Erpc.Rpc.create nx ~rpc_id:0) nexuses in
  let s01 = Erpc.Rpc.create_session rpcs.(0) ~remote_host:1 ~remote_rpc_id:0 () in
  let s10 = Erpc.Rpc.create_session rpcs.(1) ~remote_host:0 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  Netsim.Network.set_loss_prob (Erpc.Fabric.net fabric) 0.01;
  let done0 = ref 0 and done1 = ref 0 in
  let n = 300 in
  let spin rpc sess counter =
    let rec issue i =
      if i < n then begin
        let req = Erpc.Msgbuf.alloc ~max_size:32 in
        let resp = Erpc.Msgbuf.alloc ~max_size:32 in
        Erpc.Rpc.enqueue_request rpc sess ~req_type:echo ~req ~resp ~cont:(fun r ->
            if Result.is_ok r then incr counter;
            issue (i + 1))
      end
    in
    issue 0
  in
  spin rpcs.(0) s01 done0;
  spin rpcs.(1) s10 done1;
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 3_000.));
  check_int "direction 0->1 all done" n !done0;
  check_int "direction 1->0 all done" n !done1

let suite_for tp =
  [
    Alcotest.test_case "rate-limited retransmissions (Appendix C path)" `Quick
      (test_rate_limited_retransmissions tp);
    protocol_fuzz tp;
    Alcotest.test_case "bidirectional churn with loss" `Quick
      (test_bidirectional_churn_with_loss tp);
  ]

let suite = suite_for Erpc.Config.Raw_eth
let suite_rc = suite_for Erpc.Config.Rdma_rc
