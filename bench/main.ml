(* Bechamel microbenchmarks over the hot datapath kernels (event queue,
   timing wheel, Timely, histogram, MICA, Masstree, Raft codec, KV request
   codec), one Test.make per kernel; prints each kernel's ns and minor-heap
   words per run. The paper's tables and figures are `erpc_sim paper
   <section>`. *)

(* Minor-heap words allocated, read with [Gc.minor_words], which counts the
   current minor heap's allocations too. Bechamel's own minor-allocated
   instance reads [Gc.quick_stat], whose count moves only at minor
   collections on OCaml 5, so a kernel allocating a few words per run reads
   as 0. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Bechamel.Measure.instance (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let () =
  let open Bechamel in
  (* 64 pushes [1, 1 + ahead) ns past the last popped time (like the
     engine, never before it), then 64 pops. *)
  let event_queue_kernel ~ahead =
    let rng = Sim.Rng.create 1L in
    let q = Sim.Timing_wheel.create () in
    Staged.stage (fun () ->
        let now = Sim.Timing_wheel.last_time q in
        for i = 0 to 63 do
          Sim.Timing_wheel.push q (now + 1 + Sim.Rng.int rng ahead) i 0
        done;
        for _ = 0 to 63 do
          ignore (Sim.Timing_wheel.pop q)
        done)
  in
  let wheel_kernel =
    let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:4096 in
    let now = ref 0 in
    Staged.stage (fun () ->
        for i = 0 to 63 do
          Erpc.Wheel.insert w ~now:!now ~at:(!now + (i * 500)) i
        done;
        now := !now + 40_000;
        ignore (Erpc.Wheel.poll w ~now:!now (fun _ -> ())))
  in
  let timely_kernel =
    let cc = Erpc.Config.default_cc ~min_rtt_ns:5_000 in
    let tl = Erpc.Timely.create { cc with samples_per_update = 1 } ~link_gbps:25.0 in
    let i = ref 0 in
    Staged.stage (fun () ->
        incr i;
        Erpc.Timely.update tl ~sample_rtt_ns:(40_000 + (!i * 7919 mod 20_000)))
  in
  let hist_kernel =
    let h = Stats.Hist.create () in
    let i = ref 0 in
    Staged.stage (fun () ->
        incr i;
        Stats.Hist.record h (!i * 2654435761 land 0xFFFFF))
  in
  let mica_kernel =
    let s = Mica.Store.create () in
    for k = 0 to 9_999 do
      Mica.Store.put s ~key:(Workload.Keygen.encode k) ~value:"0123456789abcdef"
    done;
    let i = ref 0 in
    Staged.stage (fun () ->
        incr i;
        ignore (Mica.Store.get s ~key:(Workload.Keygen.encode (!i mod 10_000))))
  in
  let masstree_kernel =
    let t = Masstree.Tree.create () in
    for k = 0 to 9_999 do
      Masstree.Tree.insert t ~key:(Workload.Keygen.encode k) ~value:"v"
    done;
    let i = ref 0 in
    Staged.stage (fun () ->
        incr i;
        ignore (Masstree.Tree.get t ~key:(Workload.Keygen.encode (!i mod 10_000))))
  in
  let codec_kernel =
    let msg =
      Raft.Core.Append_entries
        {
          term = 7;
          leader_id = 1;
          prev_log_index = 41;
          prev_log_term = 6;
          leader_commit = 40;
          entries = [ { Raft.Log.term = 7; cmd = String.make 80 'x' } ];
        }
    in
    Staged.stage (fun () -> ignore (Raft.Wire.decode (Raft.Wire.encode msg)))
  in
  (* One KV PUT request through the service's frozen format, into and out
     of a reused msgbuf: what a client encode plus a replica decode cost. *)
  let kv_request_kernel =
    let m = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.req_size in
    let r =
      {
        Service.Kv_proto.op = Service.Kv_proto.Put;
        shard = 3;
        client_id = 7;
        seq = 42;
        key = Workload.Keygen.encode 42;
        value = String.make Service.Kv_proto.value_size 'v';
      }
    in
    Staged.stage (fun () ->
        Service.Kv_proto.write_request m r;
        ignore (Service.Kv_proto.read_request m))
  in
  let tests =
    [
      (* Engine-shaped: every push lands inside the 16,384 ns wheel
         window, so this times slot chains and the bitmap scan. *)
      Test.make ~name:"event_queue push+pop x64" (event_queue_kernel ~ahead:4_000);
      (* Up to 1 ms ahead: nearly every push goes through the overflow
         heap and migrates into the wheel before it pops. *)
      Test.make ~name:"event_queue far push+pop x64" (event_queue_kernel ~ahead:1_000_000);
      Test.make ~name:"wheel insert+poll x64" wheel_kernel;
      Test.make ~name:"timely update" timely_kernel;
      Test.make ~name:"hist record" hist_kernel;
      Test.make ~name:"mica get (10k keys)" mica_kernel;
      Test.make ~name:"masstree get (10k keys)" masstree_kernel;
      Test.make ~name:"raft codec roundtrip" codec_kernel;
      Test.make ~name:"kv request encode+decode" kv_request_kernel;
    ]
  in
  print_endline "Bechamel microbenchmarks (ns and minor-heap words per run)";
  let clock = Toolkit.Instance.monotonic_clock in
  let words = minor_words in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let estimate instance raw name =
    match Hashtbl.find_opt (Analyze.all ols instance raw) name with
    | Some o -> ( match Analyze.OLS.estimates o with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ clock; words ] test in
      List.iter
        (fun name ->
          match (estimate clock raw name, estimate words raw name) with
          | Some ns, Some w -> Printf.printf "%-32s %12.1f ns %10.1f words\n%!" name ns w
          | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
        (Test.names test))
    tests

