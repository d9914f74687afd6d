(* An event is a handler id and an int argument. Handler ids pack the
   handler's index in [handlers] above [layer_bits] bits of layer, so
   the census needs no second lookup. Handler 0 is the trampoline that
   runs a one-shot closure taken from the wheel's pointer slot; handler 1
   is [no_handler]. *)

type layer = Link | Nic | Rpc | Shm | Timer

let layer_bits = 3
let closure_layer = 5
let n_layers = 6

let layer_index = function Link -> 0 | Nic -> 1 | Rpc -> 2 | Shm -> 3 | Timer -> 4

let layer_names = [| "netsim.link"; "nic"; "rpc"; "shm"; "timer"; "closure" |]

type handler = int

type t = {
  queue : (unit -> unit) Timing_wheel.t;
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
  by_layer : int array; (* events executed, by layer index *)
  mutable clock : Time.t;
  master_rng : Rng.t;
  mutable trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
}

let closure_handler = closure_layer
let no_handler = (1 lsl layer_bits) lor closure_layer

let unset_handler (_ : int) = invalid_arg "Engine: event posted to no_handler"

let register t layer f =
  if t.n_handlers = Array.length t.handlers then begin
    let a = Array.make (2 * t.n_handlers) unset_handler in
    Array.blit t.handlers 0 a 0 t.n_handlers;
    t.handlers <- a
  end;
  let i = t.n_handlers in
  t.handlers.(i) <- f;
  t.n_handlers <- i + 1;
  (i lsl layer_bits) lor layer

let handler t ~layer f = register t (layer_index layer) f

(* The census arrays of the engines created inside {!counting}, from any
   domain, each with the domain that created it. Engines are created once
   per run, so a mutex costs nothing. *)
let counting_on = Atomic.make false
let counted = ref []
let counted_lock = Mutex.create ()

let create ?(seed = 42L) () =
  let t =
    {
      queue = Timing_wheel.create ();
      handlers = Array.make 64 unset_handler;
      n_handlers = 0;
      by_layer = Array.make n_layers 0;
      clock = Time.zero;
      master_rng = Rng.create seed;
      trace = Obs.Trace.disabled;
      metrics = Obs.Metrics.create ();
    }
  in
  if Atomic.get counting_on then
    Mutex.protect counted_lock (fun () -> counted := (Domain.self (), t.by_layer) :: !counted);
  let q = t.queue in
  ignore (register t closure_layer (fun _ -> (Timing_wheel.take_ptr q) ()));
  ignore (register t closure_layer unset_handler);
  (* Wheel-window gauges: the wheel's occupied-slot count, and how many
     events wait in the overflow heap instead of the wheel. *)
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

let post t at h arg =
  check_future t at;
  Timing_wheel.push t.queue at h arg

let post_after t delta h arg = post t (Time.add t.clock delta) h arg

let schedule t at f =
  check_future t at;
  Timing_wheel.push_ptr t.queue at closure_handler f

let schedule_after t delta f = schedule t (Time.add t.clock delta) f
let reserve_seq t = Timing_wheel.reserve_seq t.queue

let post_seq t at seq h arg =
  check_future t at;
  Timing_wheel.push_seq t.queue at seq h arg

(* Run the earliest event if it is due by [horizon]; [false] if none is. *)
let run_next t horizon =
  let q = t.queue in
  let h = Timing_wheel.pop_if_before q horizon in
  if h < 0 then false
  else begin
    t.clock <- Timing_wheel.last_time q;
    let l = h land ((1 lsl layer_bits) - 1) in
    t.by_layer.(l) <- t.by_layer.(l) + 1;
    t.handlers.(h lsr layer_bits) (Timing_wheel.last_arg q);
    true
  end

let run_until t horizon =
  while run_next t horizon do
    ()
  done;
  if t.clock < horizon then t.clock <- horizon

let run t =
  while run_next t max_int do
    ()
  done

let events_processed t = Array.fold_left ( + ) 0 t.by_layer
let census_of by_layer =
  Array.to_list (Array.mapi (fun l name -> (name, by_layer.(l))) layer_names)
let census t = census_of t.by_layer

type counted = { census : (string * int) list; off_domain : bool }

let counting f =
  if Atomic.exchange counting_on true then invalid_arg "Engine.counting: already counting";
  counted := [];
  let r = Fun.protect ~finally:(fun () -> Atomic.set counting_on false) f in
  let engines =
    Mutex.protect counted_lock (fun () ->
        let l = !counted in
        counted := [];
        l)
  in
  let sum = Array.make n_layers 0 in
  List.iter (fun (_, by_layer) -> Array.iteri (fun l n -> sum.(l) <- sum.(l) + n) by_layer) engines;
  let self = Domain.self () in
  (r, { census = census_of sum; off_domain = List.exists (fun (d, _) -> d <> self) engines })

let pending t = Timing_wheel.length t.queue
