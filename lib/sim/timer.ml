(* Lazy re-arm. Every [arm] reserves the tie-break seq that scheduling an
   event would take, so the callback runs under the key [(deadline, seq)]
   of the last arm — the very event an eager timer would have queued —
   but the event is only queued when nothing of this timer's is queued at
   or before [deadline]. Otherwise the earliest queued event, when it
   fires, re-posts itself under the reserved key. Pushing a key late does
   not change its place: it is queued before the queue reaches it.

   The queued events of a timer have distinct times. The earliest one is
   [head_time]; [later] holds the others, left behind by re-arms to an
   earlier deadline. Since events pop in key order, whenever [fire] runs,
   the event running is the one at [head_time]. *)

let none = max_int

type t = {
  engine : Engine.t;
  callback : unit -> unit;
  mutable fire : Engine.handler; (* the one handler every queued event runs *)
  mutable armed : bool;
  mutable deadline : Time.t;
  mutable seq : int; (* reserved by the last arm *)
  mutable head_time : Time.t; (* earliest queued event, or [none] *)
  mutable head_seq : int; (* its seq; -1 once it no longer carries an arm *)
  mutable later : Time.t list; (* other queued events, ascending *)
}

(* Queue the event for the current arm ahead of everything queued. *)
let post t =
  if t.head_time <> none then t.later <- t.head_time :: t.later;
  t.head_time <- t.deadline;
  t.head_seq <- t.seq;
  Engine.post_seq t.engine t.deadline t.seq t.fire 0

let fire t =
  let current = t.head_seq = t.seq in
  (match t.later with
  | [] -> t.head_time <- none
  | next :: rest ->
      t.head_time <- next;
      t.head_seq <- -1;
      t.later <- rest);
  if t.armed then
    if current then begin
      t.armed <- false;
      t.callback ()
    end
    else if t.deadline < t.head_time then post t

let create engine ~callback =
  let t =
    {
      engine;
      callback;
      fire = Engine.no_handler;
      armed = false;
      deadline = Time.zero;
      seq = -1;
      head_time = none;
      head_seq = -1;
      later = [];
    }
  in
  t.fire <- Engine.handler engine ~layer:Timer (fun _ -> fire t);
  t

let arm t at =
  if at < Engine.now t.engine then
    invalid_arg
      (Format.asprintf "Timer.arm: time %a is before now %a" Time.pp at Time.pp
         (Engine.now t.engine));
  t.armed <- true;
  t.deadline <- at;
  t.seq <- Engine.reserve_seq t.engine;
  if at < t.head_time then post t

let arm_after t delta = arm t (Time.add (Engine.now t.engine) delta)
let disarm t = t.armed <- false
let is_armed t = t.armed
let queued t = (if t.head_time = none then 0 else 1) + List.length t.later

let deadline t =
  if not t.armed then invalid_arg "Timer.deadline: timer not armed";
  t.deadline
