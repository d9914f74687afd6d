(* Every event is a handler applied to one argument. The queue stores both
   untyped; [schedule_arg] writes them from one typed call, so each popped
   handler is applied to a value of the type it was scheduled with. A
   [unit -> unit] handler runs on the [()] that an argument-free event
   carries. *)
type t = {
  queue : (Obj.t -> unit, Obj.t) Timing_wheel.t;
  mutable clock : Time.t;
  master_rng : Rng.t;
  mutable executed : int;
  mutable trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
}

let create ?(seed = 42L) () =
  let t =
    {
      queue = Timing_wheel.create ();
      clock = Time.zero;
      master_rng = Rng.create seed;
      executed = 0;
      trace = Obs.Trace.disabled;
      metrics = Obs.Metrics.create ();
    }
  in
  (* Queue-shape gauges: pending event count, the wheel's occupied-slot
     load factor, and how many events wait in the overflow heap instead of
     the wheel. *)
  Obs.Metrics.gauge t.metrics ~name:"sim.queue_depth" (fun () ->
      float_of_int (Timing_wheel.length t.queue));
  Obs.Metrics.gauge t.metrics ~name:"sim.wheel_occupancy" (fun () ->
      float_of_int (Timing_wheel.occupied_slots t.queue));
  Obs.Metrics.gauge t.metrics ~name:"sim.queue_overflow" (fun () ->
      float_of_int (Timing_wheel.overflow_length t.queue));
  t

let now t = t.clock
let rng t = t.master_rng
let trace t = t.trace
let set_trace t tr = t.trace <- tr
let metrics t = t.metrics

let check_future t at =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: time %a is before now %a" Time.pp at Time.pp t.clock)

let schedule_arg t at (f : 'a -> unit) (a : 'a) =
  check_future t at;
  Timing_wheel.push_arg t.queue at (Obj.magic f : Obj.t -> unit) (Obj.repr a)

let schedule t at f = schedule_arg t at f ()
let schedule_after_arg t delta f a = schedule_arg t (Time.add t.clock delta) f a
let schedule_after t delta f = schedule_arg t (Time.add t.clock delta) f ()
let reserve_seq t = Timing_wheel.reserve_seq t.queue

let schedule_seq t at seq (f : unit -> unit) =
  check_future t at;
  Timing_wheel.push_seq t.queue at seq (Obj.magic f : Obj.t -> unit) (Obj.repr ())

(* Sentinel for the fused pop: a statically allocated closure no caller
   can accidentally schedule (closures without free variables are unique
   per definition site). *)
let null_event (_ : Obj.t) = ()

(* Run the earliest event if it is due by [horizon]; [false] if none is. *)
let run_next t horizon =
  let q = t.queue in
  let f = Timing_wheel.pop_if_before q horizon ~default:null_event in
  if f == null_event then false
  else begin
    let a = Timing_wheel.take_arg q in
    t.clock <- Timing_wheel.last_time q;
    t.executed <- t.executed + 1;
    f a;
    true
  end

let step t = run_next t max_int

let run_until t horizon =
  while run_next t horizon do
    ()
  done;
  if t.clock < horizon then t.clock <- horizon

let run t =
  while run_next t max_int do
    ()
  done

let events_processed t = t.executed
let pending t = Timing_wheel.length t.queue
