type handler_mode = Dispatch | Worker
type handler = Req_handle.t -> unit

module Int_tbl = Proto.Int_tbl

type worker = {
  cpu : Sim.Cpu.t;
  jobs : (Sim.Cpu.t -> unit) Queue.t;
  mutable running : bool;
  mutable inflight : int;  (* submitted jobs whose charged work has not finished *)
}

type t = {
  fabric : Fabric.t;
  host : int;
  handlers : (handler_mode * handler) Int_tbl.t;
  workers : worker array;
  mutable rx_routes : Transport.Iface.t option array;  (* by Rpc id *)
  process : Proto.process;  (* liveness and dispatch-mode types, shared with each Proto *)
}

let create fabric ~host ?(num_workers = 1) () =
  let engine = Fabric.engine fabric in
  let t =
    {
      fabric;
      host;
      handlers = Int_tbl.create 16;
      workers =
        Array.init num_workers (fun i ->
            {
              cpu = Sim.Cpu.create engine ~name:(Printf.sprintf "h%d-worker%d" host i);
              jobs = Queue.create ();
              running = false;
              inflight = 0;
            });
      rx_routes = [||];
      process = { Proto.dead = false; dispatch_types = Int_tbl.create 16 };
    }
  in
  Netsim.Network.attach (Fabric.net fabric) ~host ~rx:(fun pkt ->
      if t.process.dead then Netsim.Packet.free pkt
      else
        match pkt.Netsim.Packet.body with
        | Wire.Pkt { dst_rpc; _ } when dst_rpc >= 0 && dst_rpc < Array.length t.rx_routes -> (
            match t.rx_routes.(dst_rpc) with
            | Some tp -> Transport.Iface.receive tp pkt
            | None -> Netsim.Packet.free pkt)
        | _ -> Netsim.Packet.free pkt);
  Fabric.on_host_killed fabric (fun h -> if h = host then t.process.dead <- true);
  Fabric.on_host_restart fabric (fun h -> if h = host then t.process.dead <- false);
  t

let fabric t = t.fabric
let host t = t.host
let dead t = t.process.dead
let process t = t.process

let register_handler t ~req_type ~mode handler =
  if Int_tbl.mem t.handlers req_type then
    invalid_arg (Printf.sprintf "Nexus.register_handler: req_type %d already registered" req_type);
  Int_tbl.replace t.handlers req_type (mode, handler);
  if mode = Dispatch then Int_tbl.replace t.process.dispatch_types req_type ()

let handler t req_type = Int_tbl.find_opt t.handlers req_type

let register_rx t ~rpc_id transport =
  if rpc_id < 0 then invalid_arg (Printf.sprintf "Nexus.register_rx: negative Rpc id %d" rpc_id);
  let n = Array.length t.rx_routes in
  if rpc_id >= n then begin
    let routes = Array.make (Int.max (rpc_id + 1) (2 * n)) None in
    Array.blit t.rx_routes 0 routes 0 n;
    t.rx_routes <- routes
  end;
  if Option.is_some t.rx_routes.(rpc_id) then
    invalid_arg (Printf.sprintf "Nexus.register_rx: Rpc id %d already exists on host %d" rpc_id t.host);
  t.rx_routes.(rpc_id) <- Some transport

let rec drain_worker t w =
  match Queue.take_opt w.jobs with
  | None -> w.running <- false
  | Some job ->
      let engine = Fabric.engine t.fabric in
      let start = Sim.Cpu.start_slice w.cpu in
      Sim.Engine.schedule engine start (fun () ->
          if not t.process.dead then job w.cpu;
          (* The next job may begin once this one's charged work ends. *)
          Sim.Engine.schedule engine (Sim.Cpu.next_free w.cpu) (fun () ->
              w.inflight <- w.inflight - 1;
              drain_worker t w))

let submit_worker t job =
  if Array.length t.workers = 0 then invalid_arg "Nexus.submit_worker: no worker threads";
  let best = ref t.workers.(0) in
  Array.iter
    (fun w ->
      let better =
        w.inflight < !best.inflight
        || (w.inflight = !best.inflight && Sim.Cpu.next_free w.cpu < Sim.Cpu.next_free !best.cpu)
      in
      if better then best := w)
    t.workers;
  let w = !best in
  w.inflight <- w.inflight + 1;
  Queue.add job w.jobs;
  if not w.running then begin
    w.running <- true;
    drain_worker t w
  end

