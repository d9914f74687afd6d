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
   ends (until then the strongest active interval wins). [link_up] and
   [heal] say whether the link or the ToR pair came back. *)

let link_down t host =
  let d = Option.value ~default:0 (Hashtbl.find_opt t.link_depth host) in
  Hashtbl.replace t.link_depth host (d + 1);
  if d = 0 then Netsim.Network.set_host_link t.net ~host false

let link_up t host =
  match Hashtbl.find_opt t.link_depth host with
  | None | Some 0 -> false
  | Some d ->
      Hashtbl.replace t.link_depth host (d - 1);
      if d = 1 then Netsim.Network.set_host_link t.net ~host true;
      d = 1

let norm_pair a b = if a <= b then (a, b) else (b, a)

let partition t tor_a tor_b =
  let key = norm_pair tor_a tor_b in
  let d = Option.value ~default:0 (Hashtbl.find_opt t.partition_depth key) in
  Hashtbl.replace t.partition_depth key (d + 1);
  if d = 0 then Netsim.Network.set_partition t.net ~tor_a ~tor_b true

let heal t tor_a tor_b =
  let key = norm_pair tor_a tor_b in
  match Hashtbl.find_opt t.partition_depth key with
  | None | Some 0 -> false
  | Some d ->
      Hashtbl.replace t.partition_depth key (d - 1);
      if d = 1 then Netsim.Network.set_partition t.net ~tor_a ~tor_b false;
      d = 1

let max_prob = List.fold_left Stdlib.max 0.0

let strongest_reorder =
  List.fold_left (fun (bp, bd) (p, d) -> if p > bp then (p, d) else (bp, bd)) (0.0, 0)

let jitters t host = Option.value ~default:[] (Hashtbl.find_opt t.jitter_active host)
let max_jitter t host = List.fold_left Stdlib.max 0 (jitters t host)
let refresh_corrupt t = Netsim.Network.set_corrupt_prob t.net (max_prob t.corrupt_active)
let refresh_dup t = Netsim.Network.set_dup_prob t.net (max_prob t.dup_active)

let refresh_reorder t =
  let prob, max_delay_ns = strongest_reorder t.reorder_active in
  Netsim.Network.set_reorder t.net ~prob ~max_delay_ns

let refresh_jitter t host =
  Netsim.Network.set_host_extra_delay t.net ~host (max_jitter t host)

(* The trace line for an interval that ended, [still] being the intervals
   of its kind that remain: [off] once none does, the value now in force
   when it differs from the one [before], and nothing while it holds. *)
let reverted t ~still ~before ~now off show =
  if still = [] then note t off else if now <> before then note t (show now)

let apply t (ev : Schedule.event) =
  note t ("inject " ^ Schedule.fault_to_string ev.fault);
  match ev.fault with
  | Link_down { host; down_ns } ->
      link_down t host;
      after t down_ns (fun () ->
          if link_up t host then note t (Printf.sprintf "restore link host=%d" host))
  | Link_flap { host; period_ns; cycles } ->
      for i = 0 to cycles - 1 do
        after t (i * period_ns) (fun () -> link_down t host);
        after t ((i * period_ns) + Stdlib.max 1 (period_ns / 2)) (fun () ->
            ignore (link_up t host))
      done;
      after t (cycles * period_ns) (fun () ->
          note t (Printf.sprintf "flap done host=%d" host))
  | Partition { tor_a; tor_b; heal_ns } ->
      partition t tor_a tor_b;
      after t heal_ns (fun () ->
          if heal t tor_a tor_b then
            note t (Printf.sprintf "heal partition tors=%d,%d" tor_a tor_b))
  | Corrupt { prob; duration_ns } ->
      t.corrupt_active <- prob :: t.corrupt_active;
      refresh_corrupt t;
      after t duration_ns (fun () ->
          let before = max_prob t.corrupt_active in
          t.corrupt_active <- remove_one prob t.corrupt_active;
          reverted t ~still:t.corrupt_active ~before ~now:(max_prob t.corrupt_active)
            "corrupt off" (Printf.sprintf "corrupt p=%.3f");
          refresh_corrupt t)
  | Duplicate { prob; duration_ns } ->
      t.dup_active <- prob :: t.dup_active;
      refresh_dup t;
      after t duration_ns (fun () ->
          let before = max_prob t.dup_active in
          t.dup_active <- remove_one prob t.dup_active;
          reverted t ~still:t.dup_active ~before ~now:(max_prob t.dup_active) "duplicate off"
            (Printf.sprintf "duplicate p=%.3f");
          refresh_dup t)
  | Reorder { prob; max_delay_ns; duration_ns } ->
      t.reorder_active <- (prob, max_delay_ns) :: t.reorder_active;
      refresh_reorder t;
      after t duration_ns (fun () ->
          let before = strongest_reorder t.reorder_active in
          t.reorder_active <- remove_one (prob, max_delay_ns) t.reorder_active;
          reverted t ~still:t.reorder_active ~before
            ~now:(strongest_reorder t.reorder_active)
            "reorder off"
            (fun (p, d) -> Printf.sprintf "reorder p=%.3f max_delay=%d" p d);
          refresh_reorder t)
  | Jitter { host; extra_ns; duration_ns } ->
      Hashtbl.replace t.jitter_active host (extra_ns :: jitters t host);
      refresh_jitter t host;
      after t duration_ns (fun () ->
          let before = max_jitter t host in
          Hashtbl.replace t.jitter_active host (remove_one extra_ns (jitters t host));
          reverted t ~still:(jitters t host) ~before ~now:(max_jitter t host)
            (Printf.sprintf "jitter off host=%d" host)
            (Printf.sprintf "jitter host=%d extra=%d" host);
          refresh_jitter t host)
  | Crash { host; down_ns } -> Erpc.Fabric.crash_host t.fabric host ~down_ns
  | Drop_nth { n } -> Netsim.Network.arm_drop_nth t.net n

let install t schedule =
  let base = Sim.Engine.now t.engine in
  List.iter
    (fun (ev : Schedule.event) ->
      Sim.Engine.schedule t.engine (Sim.Time.add base ev.at_ns) (fun () -> apply t ev))
    (Schedule.sort schedule)
