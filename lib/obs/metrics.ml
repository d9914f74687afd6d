(* Pull-based metrics registry. Components register named, labeled
   counter/gauge closures at creation time; nothing is read until a reader
   folds over them, so registration adds zero work to the simulation hot
   path. Every component registers once per run, so a (name, labels) pair
   is never registered twice. *)

type source = Counter of (unit -> int) | Gauge of (unit -> float)
type entry = { name : string; labels : (string * string) list; source : source }
type t = { mutable entries : entry list (* reverse registration order *) }

let create () = { entries = [] }
let register t ~name ~labels source = t.entries <- { name; labels; source } :: t.entries
let counter t ~name ?(labels = []) f = register t ~name ~labels (Counter f)
let gauge t ~name ?(labels = []) f = register t ~name ~labels (Gauge f)

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
