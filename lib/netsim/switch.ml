type t = {
  engine : Sim.Engine.t;
  name : string;
  pool : Buffer_pool.t;
  mutable ports : Port.t array;
  mutable num_ports : int;
  (* Egress candidates by destination host; [no_route] where none is set. *)
  mutable routes : int array array;
}

let no_route = [||]

let create engine ~name ~buffer_bytes ~alpha =
  let t =
    {
      engine;
      name;
      pool = Buffer_pool.create ~capacity_bytes:buffer_bytes ~alpha;
      ports = [||];
      num_ports = 0;
      routes = [||];
    }
  in
  Obs.Metrics.gauge (Sim.Engine.metrics engine) ~name:"switch.buffer_max"
    ~labels:[ ("switch", name) ]
    (fun () -> float_of_int (Buffer_pool.max_used t.pool));
  t

let name t = t.name
let pool t = t.pool

let add_port t port =
  if t.num_ports >= Array.length t.ports then begin
    let cap = Int.max 8 (2 * Array.length t.ports) in
    let ports = Array.make cap port in
    Array.blit t.ports 0 ports 0 t.num_ports;
    t.ports <- ports
  end;
  t.ports.(t.num_ports) <- port;
  t.num_ports <- t.num_ports + 1;
  t.num_ports - 1

let port t i =
  assert (i >= 0 && i < t.num_ports);
  t.ports.(i)

let set_route t ~dst ~ports =
  if dst >= Array.length t.routes then begin
    let routes = Array.make (Int.max (dst + 1) (2 * Array.length t.routes)) no_route in
    Array.blit t.routes 0 routes 0 (Array.length t.routes);
    t.routes <- routes
  end;
  t.routes.(dst) <- ports

let forward t pkt =
  let dst = pkt.Packet.dst in
  let candidates = if dst >= 0 && dst < Array.length t.routes then t.routes.(dst) else no_route in
  let n = Array.length candidates in
  if n = 0 then invalid_arg (Printf.sprintf "Switch %s: no route for host %d" t.name dst);
  let idx = if n = 1 then 0 else pkt.Packet.flow_hash mod n in
  ignore (Port.send t.ports.(candidates.(idx)) pkt)

let dropped_packets t =
  let total = ref 0 in
  for i = 0 to t.num_ports - 1 do
    total := !total + Port.dropped_packets t.ports.(i)
  done;
  !total

let ports t = List.init t.num_ports (fun i -> t.ports.(i))

let audit t =
  let used = Buffer_pool.used_through t.pool (Sim.Engine.now t.engine) in
  let queued =
    List.fold_left
      (fun acc p ->
        match Port.pool p with Some pool when pool == t.pool -> acc + Port.queued_bytes p | _ -> acc)
      0 (ports t)
  in
  if used = queued then []
  else [ Printf.sprintf "%s: pool holds %d bytes, its ports queue %d" t.name used queued ]
