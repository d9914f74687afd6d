type t = {
  window_ns : int;
  oks : int array;
  fails : int array;
  lat : Stats.Hist.t array;  (** allocated lazily: most windows see traffic *)
}

let create ~window_ns ~horizon_ns =
  assert (window_ns > 0 && horizon_ns > 0);
  let n = (horizon_ns + window_ns - 1) / window_ns in
  {
    window_ns;
    oks = Array.make n 0;
    fails = Array.make n 0;
    lat = Array.init n (fun _ -> Stats.Hist.create ());
  }

let slot t at_ns =
  let i = at_ns / t.window_ns in
  if i < 0 then 0 else min i (Array.length t.oks - 1)

let ok t ~at_ns ~latency_ns =
  let i = slot t at_ns in
  t.oks.(i) <- t.oks.(i) + 1;
  Stats.Hist.record t.lat.(i) latency_ns

let fail t ~at_ns =
  let i = slot t at_ns in
  t.fails.(i) <- t.fails.(i) + 1

let num_windows t = Array.length t.oks
let is_gap t i = t.oks.(i) = 0 && t.fails.(i) > 0

let gaps t =
  let n = ref 0 in
  Array.iteri (fun i _ -> if is_gap t i then incr n) t.oks;
  !n

let longest_gap_ns t =
  let best = ref 0 and cur = ref 0 in
  Array.iteri
    (fun i _ ->
      if is_gap t i then begin
        incr cur;
        if !cur > !best then best := !cur
      end
      else cur := 0)
    t.oks;
  !best * t.window_ns

let windows t =
  List.init (num_windows t) (fun i ->
      let p50, p99 =
        if t.oks.(i) = 0 then (0, 0)
        else (Stats.Hist.median t.lat.(i), Stats.Hist.percentile t.lat.(i) 99.)
      in
      (i * t.window_ns, t.oks.(i), t.fails.(i), p50, p99))

let to_json t =
  Json.Obj
    [
      ("window_ns", Json.Int t.window_ns);
      ( "windows",
        Json.Arr
          (List.map
             (fun (t_ns, ok, fail, p50, p99) ->
               Json.Obj
                 [
                   ("t_ns", Json.Int t_ns);
                   ("ok", Json.Int ok);
                   ("fail", Json.Int fail);
                   ("p50_ns", Json.Int p50);
                   ("p99_ns", Json.Int p99);
                 ])
             (windows t)) );
    ]
