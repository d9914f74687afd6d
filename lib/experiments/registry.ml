type outcome = {
  rows : Obs.Json.t list;
  report : string;
  violations : string list;
  host : (string * Obs.Json.t) list;
}

type 'p entry = {
  name : string;
  doc : string;
  benchmark : string;
  unit : string;
  params : 'p -> (string * Obs.Json.t) list;
  run : seed:int64 -> 'p -> outcome;
}

type result = {
  experiment : string;
  benchmark : string;
  unit : string;
  seed : int64;
  params : (string * Obs.Json.t) list;
  outcome : outcome;
  digest : string;
  census : (string * int) list;
  events : int;
  cpu_s : float;
  wall_s : float;
  minor_words_per_event : float option;
  peak_heap_mb : float;
  violations : string list;
}

let schema_version = 1
let digest rows = Digest.to_hex (Digest.string (Obs.Json.to_string (Obs.Json.Arr rows)))

let run ~wall_clock ?(rerun = false) (e : _ entry) ~seed p =
  Gc.full_major ();
  let w0 = Gc.minor_words () and c0 = Sys.time () and t0 = wall_clock () in
  let outcome, ({ census; off_domain } : Sim.Engine.counted) =
    Sim.Engine.counting (fun () -> e.run ~seed p)
  in
  let wall_s = wall_clock () -. t0 and cpu_s = Sys.time () -. c0 in
  let words = Gc.minor_words () -. w0 in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1_048_576.
  in
  let events = List.fold_left (fun acc (_, n) -> acc + n) 0 census in
  let d = digest outcome.rows in
  let rerun_violations =
    if not rerun then []
    else
      let again, ({ census = census2; _ } : Sim.Engine.counted) =
        Sim.Engine.counting (fun () -> e.run ~seed p)
      in
      let d2 = digest again.rows in
      (if d2 <> d then [ Printf.sprintf "%s: rerun digest %s <> %s" e.name d2 d ] else [])
      @
      if census2 <> census then [ Printf.sprintf "%s: rerun event census differs" e.name ]
      else []
  in
  {
    experiment = e.name;
    benchmark = e.benchmark;
    unit = e.unit;
    seed;
    params = e.params p;
    outcome;
    digest = d;
    census;
    events;
    cpu_s;
    wall_s;
    (* [words] counts this domain's allocations only: a ratio to events
       that other domains ran would fall with --jobs. *)
    minor_words_per_event =
      (if off_domain then None
       else Some (if events > 0 then words /. float_of_int events else 0.));
    peak_heap_mb;
    violations = outcome.violations @ rerun_violations;
  }

let envelope r =
  let open Obs.Json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("experiment", Str r.experiment);
      ("benchmark", Str r.benchmark);
      ("unit", Str r.unit);
      ("seed", Int (Int64.to_int r.seed));
      ("params", Obj r.params);
      ("digest", Str r.digest);
      ("events", Int r.events);
      ("events_by_layer", Obj (List.map (fun (l, n) -> (l, Int n)) r.census));
      ("cpu_s", Float r.cpu_s);
      ("wall_s", Float r.wall_s);
      ( "minor_words_per_event",
        match r.minor_words_per_event with Some w -> Float w | None -> Null );
      ("peak_heap_mb", Float r.peak_heap_mb);
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("violations", Arr (List.map (fun v -> Str v) r.violations));
      ("rows", Arr r.outcome.rows);
      ("host", Obj r.outcome.host);
    ]

let cell = function
  | Obs.Json.Null -> "-"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f when f <> 0. && Float.abs f < 0.01 -> Printf.sprintf "%.0e" f
  | Float f -> Printf.sprintf "%.2f" f
  | Str s -> s
  | (Arr _ | Obj _) as v -> Obs.Json.to_string v

let table rows =
  let fields = function Obs.Json.Obj f -> f | _ -> invalid_arg "Registry.table: row" in
  let title r = List.assoc_opt "table" r in
  let columns r = List.filter (fun k -> k <> "table") (List.map fst r) in
  (* Consecutive rows under one title with the same columns form a block. *)
  let blocks =
    List.fold_left
      (fun acc r ->
        match acc with
        | (r0 :: _ as block) :: rest when title r0 = title r && columns r0 = columns r ->
            (r :: block) :: rest
        | _ -> [ r ] :: acc)
      [] (List.map fields rows)
    |> List.rev_map List.rev
  in
  let b = Buffer.create 1024 in
  let last_title = ref None in
  List.iter
    (fun block ->
      let t = title (List.hd block) in
      if t <> !last_title then
        Option.iter (fun t -> Printf.bprintf b "\n==== %s ====\n" (cell t)) t;
      last_title := t;
      let cols = columns (List.hd block) in
      let lines =
        cols :: List.map (fun r -> List.map (fun k -> cell (List.assoc k r)) cols) block
      in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map (fun _ -> 0) cols) lines
      in
      List.iter
        (fun line ->
          Buffer.add_string b
            (String.trim
               (String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths line)));
          Buffer.add_char b '\n')
        lines)
    blocks;
  Buffer.contents b
