(* Pull-based metrics registry. Components register named, labeled sources
   (counter/gauge closures or Stats.Hist references) at creation time;
   nothing is sampled until a snapshot is taken, so registration adds zero
   work to the simulation hot path. Snapshots are sorted by (name, labels)
   for deterministic reporting. *)

type source =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Histogram of Stats.Hist.t

type entry = { name : string; labels : (string * string) list; source : source }

type t = {
  mutable entries : entry list;  (* reverse registration order *)
  keys : (string * (string * string) list, unit) Hashtbl.t;
      (* registered (name, labels) pairs: makes first-time registration
         O(1) — a fabric with tens of thousands of sessions registers one
         gauge per session, and filtering the whole list each time made
         that quadratic *)
}

let create () = { entries = []; keys = Hashtbl.create 64 }

let register t ~name ~labels source =
  (* Re-registering the same (name, labels) replaces the old source, so a
     component recreated mid-run (e.g. a reconnect) does not leave a stale
     closure behind. Only that rare path pays the list walk. *)
  let key = (name, labels) in
  if Hashtbl.mem t.keys key then
    t.entries <- List.filter (fun e -> not (e.name = name && e.labels = labels)) t.entries
  else Hashtbl.add t.keys key ();
  t.entries <- { name; labels; source } :: t.entries

let counter t ~name ?(labels = []) f = register t ~name ~labels (Counter f)
let gauge t ~name ?(labels = []) f = register t ~name ~labels (Gauge f)
let histogram t ~name ?(labels = []) h = register t ~name ~labels (Histogram h)

type sampled =
  | Sample_counter of int
  | Sample_gauge of float
  | Sample_hist of { count : int; mean : float; p50 : int; p99 : int; max : int }

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : sampled;
}

let sample_entry e =
  let v =
    match e.source with
    | Counter f -> Sample_counter (f ())
    | Gauge f -> Sample_gauge (f ())
    | Histogram h ->
        let count = Stats.Hist.count h in
        Sample_hist
          {
            count;
            mean = Stats.Hist.mean h;
            p50 = (if count = 0 then 0 else Stats.Hist.percentile h 50.);
            p99 = (if count = 0 then 0 else Stats.Hist.percentile h 99.);
            max = Stats.Hist.max h;
          }
  in
  { s_name = e.name; s_labels = e.labels; s_value = v }

let snapshot t =
  List.map sample_entry
    (List.sort
       (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)
       t.entries)

let find t ~name ~labels =
  List.find_map
    (fun e ->
      if e.name = name && e.labels = labels then Some (sample_entry e) else None)
    t.entries

let fold_counters t ~name f init =
  List.fold_left
    (fun acc e ->
      match e.source with
      | Counter g when e.name = name -> f acc e.labels (g ())
      | _ -> acc)
    init t.entries

let max_gauge t ~name =
  List.fold_left
    (fun acc e ->
      match e.source with
      | Gauge g when e.name = name -> Float.max acc (g ())
      | _ -> acc)
    0. t.entries

let to_json t =
  Json.Arr
    (List.map
       (fun s ->
         let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels) in
         let base = [ ("name", Json.Str s.s_name); ("labels", labels) ] in
         Json.Obj
           (base
           @
           match s.s_value with
           | Sample_counter n ->
               [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
           | Sample_gauge g ->
               [ ("type", Json.Str "gauge"); ("value", Json.Float g) ]
           | Sample_hist h ->
               [
                 ("type", Json.Str "histogram");
                 ("count", Json.Int h.count);
                 ("mean", Json.Float h.mean);
                 ("p50", Json.Int h.p50);
                 ("p99", Json.Int h.p99);
                 ("max", Json.Int h.max);
               ]))
       (snapshot t))
