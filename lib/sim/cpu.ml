type t = {
  engine : Engine.t;
  name : string;
  mutable next_free : Time.t;
  mutable busy : int;
  mutable stats_epoch : Time.t;
}

let create engine ~name =
  { engine; name; next_free = Engine.now engine; busy = 0; stats_epoch = Engine.now engine }

let next_free t = t.next_free

let start_slice t =
  let now = Engine.now t.engine in
  if t.next_free > now then t.next_free else now

let charge t ns =
  assert (ns >= 0);
  let start = start_slice t in
  t.next_free <- Time.add start ns;
  t.busy <- t.busy + ns;
  t.next_free

let busy_ns t = t.busy

let utilization t =
  let elapsed = Time.sub (Engine.now t.engine) t.stats_epoch in
  if elapsed <= 0 then 0. else min 1.0 (float_of_int t.busy /. float_of_int elapsed)

let reset_stats t =
  t.busy <- 0;
  t.stats_epoch <- Engine.now t.engine
