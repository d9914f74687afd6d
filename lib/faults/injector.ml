type t = {
  fabric : Erpc.Fabric.t;
  net : Netsim.Network.t;
  engine : Sim.Engine.t;
  trace : Trace.t;
  link_depth : (int, int) Hashtbl.t;
  partition_depth : (int * int, int) Hashtbl.t;
  mutable corrupt_active : float list;
  mutable dup_active : float list;
  mutable reorder_active : (float * int) list;
  jitter_active : (int, int list) Hashtbl.t;
}

let create ?(trace = Trace.create ()) fabric =
  {
    fabric;
    net = Erpc.Fabric.net fabric;
    engine = Erpc.Fabric.engine fabric;
    trace;
    link_depth = Hashtbl.create 8;
    partition_depth = Hashtbl.create 8;
    corrupt_active = [];
    dup_active = [];
    reorder_active = [];
    jitter_active = Hashtbl.create 8;
  }

let note t msg = Trace.record t.trace ~at_ns:(Sim.Engine.now t.engine) msg
let after t d f = Sim.Engine.schedule_after t.engine d f

let rec remove_one x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_one x tl

(* Overlapping events targeting the same resource are refcounted: a link
   comes back up only when every [Link_down]/flap cycle covering it has
   expired, and a probability knob resets only when its last interval
   ends (until then the strongest active interval wins). *)

let link_down t host =
  let d = Option.value ~default:0 (Hashtbl.find_opt t.link_depth host) in
  Hashtbl.replace t.link_depth host (d + 1);
  if d = 0 then Netsim.Network.set_host_link t.net ~host false

let link_up t host =
  match Hashtbl.find_opt t.link_depth host with
  | None | Some 0 -> ()
  | Some d ->
      Hashtbl.replace t.link_depth host (d - 1);
      if d = 1 then Netsim.Network.set_host_link t.net ~host true

let norm_pair a b = if a <= b then (a, b) else (b, a)

let partition t tor_a tor_b =
  let key = norm_pair tor_a tor_b in
  let d = Option.value ~default:0 (Hashtbl.find_opt t.partition_depth key) in
  Hashtbl.replace t.partition_depth key (d + 1);
  if d = 0 then Netsim.Network.set_partition t.net ~tor_a ~tor_b true

let heal t tor_a tor_b =
  let key = norm_pair tor_a tor_b in
  match Hashtbl.find_opt t.partition_depth key with
  | None | Some 0 -> ()
  | Some d ->
      Hashtbl.replace t.partition_depth key (d - 1);
      if d = 1 then Netsim.Network.set_partition t.net ~tor_a ~tor_b false

let refresh_corrupt t =
  Netsim.Network.set_corrupt_prob t.net (List.fold_left Stdlib.max 0.0 t.corrupt_active)

let refresh_dup t =
  Netsim.Network.set_dup_prob t.net (List.fold_left Stdlib.max 0.0 t.dup_active)

let refresh_reorder t =
  let prob, max_delay_ns =
    List.fold_left
      (fun (bp, bd) (p, d) -> if p > bp then (p, d) else (bp, bd))
      (0.0, 0) t.reorder_active
  in
  Netsim.Network.set_reorder t.net ~prob ~max_delay_ns

let refresh_jitter t host =
  let extras = Option.value ~default:[] (Hashtbl.find_opt t.jitter_active host) in
  Netsim.Network.set_host_extra_delay t.net ~host (List.fold_left Stdlib.max 0 extras)

let apply t (ev : Schedule.event) =
  note t ("inject " ^ Schedule.fault_to_string ev.fault);
  match ev.fault with
  | Link_down { host; down_ns } ->
      link_down t host;
      after t down_ns (fun () ->
          note t (Printf.sprintf "restore link host=%d" host);
          link_up t host)
  | Link_flap { host; period_ns; cycles } ->
      for i = 0 to cycles - 1 do
        after t (i * period_ns) (fun () -> link_down t host);
        after t ((i * period_ns) + Stdlib.max 1 (period_ns / 2)) (fun () -> link_up t host)
      done;
      after t (cycles * period_ns) (fun () ->
          note t (Printf.sprintf "flap done host=%d" host))
  | Partition { tor_a; tor_b; heal_ns } ->
      partition t tor_a tor_b;
      after t heal_ns (fun () ->
          note t (Printf.sprintf "heal partition tors=%d,%d" tor_a tor_b);
          heal t tor_a tor_b)
  | Corrupt { prob; duration_ns } ->
      t.corrupt_active <- prob :: t.corrupt_active;
      refresh_corrupt t;
      after t duration_ns (fun () ->
          note t "corrupt off";
          t.corrupt_active <- remove_one prob t.corrupt_active;
          refresh_corrupt t)
  | Duplicate { prob; duration_ns } ->
      t.dup_active <- prob :: t.dup_active;
      refresh_dup t;
      after t duration_ns (fun () ->
          note t "duplicate off";
          t.dup_active <- remove_one prob t.dup_active;
          refresh_dup t)
  | Reorder { prob; max_delay_ns; duration_ns } ->
      t.reorder_active <- (prob, max_delay_ns) :: t.reorder_active;
      refresh_reorder t;
      after t duration_ns (fun () ->
          note t "reorder off";
          t.reorder_active <- remove_one (prob, max_delay_ns) t.reorder_active;
          refresh_reorder t)
  | Jitter { host; extra_ns; duration_ns } ->
      Hashtbl.replace t.jitter_active host
        (extra_ns :: Option.value ~default:[] (Hashtbl.find_opt t.jitter_active host));
      refresh_jitter t host;
      after t duration_ns (fun () ->
          note t (Printf.sprintf "jitter off host=%d" host);
          Hashtbl.replace t.jitter_active host
            (remove_one extra_ns
               (Option.value ~default:[] (Hashtbl.find_opt t.jitter_active host)));
          refresh_jitter t host)
  | Crash { host; down_ns } -> Erpc.Fabric.crash_host t.fabric host ~down_ns
  | Drop_nth { n } -> Netsim.Network.arm_drop_nth t.net n

let install t schedule =
  let base = Sim.Engine.now t.engine in
  List.iter
    (fun (ev : Schedule.event) ->
      Sim.Engine.schedule t.engine (Sim.Time.add base ev.at_ns) (fun () -> apply t ev))
    (Schedule.sort schedule)
