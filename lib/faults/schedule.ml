type fault =
  | Link_down of { host : int; down_ns : int }
  | Link_flap of { host : int; period_ns : int; cycles : int }
  | Partition of { tor_a : int; tor_b : int; heal_ns : int }
  | Corrupt of { prob : float; duration_ns : int }
  | Duplicate of { prob : float; duration_ns : int }
  | Reorder of { prob : float; max_delay_ns : int; duration_ns : int }
  | Jitter of { host : int; extra_ns : int; duration_ns : int }
  | Crash of { host : int; down_ns : int }
  | Drop_nth of { n : int }

type event = { at_ns : int; fault : fault }
type t = event list

let fault_to_string = function
  | Link_down { host; down_ns } -> Printf.sprintf "link_down host=%d down=%d" host down_ns
  | Link_flap { host; period_ns; cycles } ->
      Printf.sprintf "link_flap host=%d period=%d cycles=%d" host period_ns cycles
  | Partition { tor_a; tor_b; heal_ns } ->
      Printf.sprintf "partition tors=%d,%d heal=%d" tor_a tor_b heal_ns
  | Corrupt { prob; duration_ns } -> Printf.sprintf "corrupt p=%.3f dur=%d" prob duration_ns
  | Duplicate { prob; duration_ns } ->
      Printf.sprintf "duplicate p=%.3f dur=%d" prob duration_ns
  | Reorder { prob; max_delay_ns; duration_ns } ->
      Printf.sprintf "reorder p=%.3f max_delay=%d dur=%d" prob max_delay_ns duration_ns
  | Jitter { host; extra_ns; duration_ns } ->
      Printf.sprintf "jitter host=%d extra=%d dur=%d" host extra_ns duration_ns
  | Crash { host; down_ns } -> Printf.sprintf "crash host=%d down=%d" host down_ns
  | Drop_nth { n } -> Printf.sprintf "drop_nth n=%d" n

(* Stable kind tag ("crash", "corrupt", ...), for coverage accounting. *)
let fault_kind = function
  | Link_down _ -> "link_down"
  | Link_flap _ -> "link_flap"
  | Partition _ -> "partition"
  | Corrupt _ -> "corrupt"
  | Duplicate _ -> "duplicate"
  | Reorder _ -> "reorder"
  | Jitter _ -> "jitter"
  | Crash _ -> "crash"
  | Drop_nth _ -> "drop_nth"

let num_kinds t =
  List.sort_uniq compare (List.map (fun ev -> fault_kind ev.fault) t) |> List.length

let sort t = List.stable_sort (fun a b -> compare a.at_ns b.at_ns) t

(* Random schedule generation. Every draw comes from one splitmix64 stream
   seeded by [seed], so the schedule is a pure function of its arguments —
   rerunning a seed reproduces the exact fault sequence. Durations are kept
   short relative to [horizon_ns] so the network heals and traffic can
   quiesce; crash downtimes are chosen both below and above the SM failure
   timeout so schedules exercise both the detected-failure and the
   silent-restart recovery paths. *)
let random ~seed ~horizon_ns ~events ~hosts ~tors =
  if events < 0 then invalid_arg "Schedule.random: negative event count";
  if hosts < 1 then invalid_arg "Schedule.random: need at least one host";
  let rng = Sim.Rng.create seed in
  let duration () = 1 + Sim.Rng.int rng (Stdlib.max 1 (horizon_ns / 8)) in
  let host () = Sim.Rng.int rng hosts in
  let gen _ =
    let at_ns = Sim.Rng.int rng (Stdlib.max 1 (horizon_ns * 3 / 4)) in
    let fault =
      match Sim.Rng.int rng 9 with
      | 0 -> Link_down { host = host (); down_ns = duration () }
      | 1 ->
          Link_flap
            {
              host = host ();
              period_ns = Stdlib.max 2 (duration () / 4);
              cycles = 2 + Sim.Rng.int rng 3;
            }
      | 2 when tors > 1 ->
          let a = Sim.Rng.int rng tors in
          let b = (a + 1 + Sim.Rng.int rng (tors - 1)) mod tors in
          Partition { tor_a = a; tor_b = b; heal_ns = duration () }
      | 3 ->
          Corrupt { prob = 0.01 +. (0.1 *. Sim.Rng.float rng); duration_ns = duration () }
      | 4 ->
          Duplicate { prob = 0.02 +. (0.15 *. Sim.Rng.float rng); duration_ns = duration () }
      | 5 ->
          Reorder
            {
              prob = 0.05 +. (0.2 *. Sim.Rng.float rng);
              max_delay_ns = 500 + Sim.Rng.int rng 5_000;
              duration_ns = duration ();
            }
      | 6 ->
          Jitter
            {
              host = host ();
              extra_ns = 1_000 + Sim.Rng.int rng 20_000;
              duration_ns = duration ();
            }
      | 7 -> Crash { host = host (); down_ns = duration () }
      | _ -> Drop_nth { n = 1 + Sim.Rng.int rng 50 }
    in
    { at_ns; fault }
  in
  sort (List.init events gen)
