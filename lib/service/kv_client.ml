type error = [ `Deadline | `Failed of string ]

module Int_tbl = Hashtbl.Make (Int)

(* A session stuck in [Connect_pending] longer than this is assumed to
   have lost its handshake to a crash (SM messages to dead hosts vanish)
   and is replaced on next use. Normal handshakes complete in microseconds
   of simulated time. *)
let connect_grace_ns = 2_000_000

(* Request and response buffers of one attempt, pooled per client. *)
type bufs = { req_buf : Erpc.Msgbuf.t; resp_buf : Erpc.Msgbuf.t }

type t = {
  fabric : Erpc.Fabric.t;
  rpc : Erpc.Rpc.t;
  engine : Sim.Engine.t;
  map : Shard_map.t;
  client_id : int;
  backoff_base_ns : int;
  backoff_max_ns : int;
  attempt_timeout_ns : int;
  rng : Sim.Rng.t;
  mutable seq : int;
  sessions : (Erpc.Session.session * Sim.Time.t) Int_tbl.t;  (** by host *)
  mutable ok : int;
  mutable deadline_exceeded : int;
  mutable retries : int;
  mutable redirects : int;
  bufs : bufs Pool.t;
  (* Operations in flight, by id. The deadline and attempt-timeout events
     carry an id, not the operation, so an operation that completes early
     is not kept alive by them. *)
  ops : op Int_tbl.t;
  mutable next_op : int;
  mutable deadline_h : Sim.Engine.handler;
  mutable timeout_h : Sim.Engine.handler;
}

(* One operation in flight. Completion clears [request] and [finish] and
   takes it out of [ops]. *)
and op = {
  cl : t;
  id : int;
  shard : int;
  group : int array;
  mutable request : Kv_proto.request;
  mutable finish : outcome -> unit;
  mutable done_ : bool;
  mutable chase : int;
      (* Consecutive redirects since the last success/backoff. Two replicas
         with stale views of each other (common mid-partition: a follower
         still naming the isolated old leader) would otherwise ping-pong the
         client at network speed until the deadline. *)
  mutable live : int;
      (* Number of the attempt awaiting its outcome, or -1. At most one
         attempt is unsettled at a time; it settles exactly once, by its
         continuation or its timeout, whichever comes first. *)
  mutable target : int;  (* host the latest attempt went to *)
  record : Obs.Op.t option;  (* receives the phase counters below at completion *)
  (* Phase counters: attempts sent on a session still connecting,
     redirects followed, and backoffs for want of a leader or after an
     error. *)
  mutable connect_waits : int;
  mutable redirected : int;
  mutable election_backoffs : int;
  mutable error_backoffs : int;
}

and outcome = (Kv_proto.status * string option, error) result

(* An attempt-timeout event carries [op id lsl attempt_bits lor (attempt
   land attempt_mask)]. Only the live attempt's timeout acts, and a stale
   one could match it only after 2^16 attempts inside one timeout. *)
let attempt_bits = 16
let attempt_mask = (1 lsl attempt_bits) - 1

let ok t = t.ok
let deadline_exceeded t = t.deadline_exceeded
let retries t = t.retries
let redirects t = t.redirects

let session_to t host =
  let fresh () =
    let sess = Erpc.Rpc.create_session t.rpc ~remote_host:host ~remote_rpc_id:0 () in
    Int_tbl.replace t.sessions host (sess, Sim.Engine.now t.engine);
    sess
  in
  match Int_tbl.find_opt t.sessions host with
  | Some (sess, _) when sess.Erpc.Session.state = Erpc.Session.Connected -> sess
  | Some (sess, born) when sess.Erpc.Session.state = Erpc.Session.Connect_pending ->
      if Sim.Time.sub (Sim.Engine.now t.engine) born > connect_grace_ns then fresh ()
      else sess
  | _ -> fresh ()

let invalidate_session t host = Int_tbl.remove t.sessions host

let pad_value v =
  let n = String.length v in
  if n > Kv_proto.value_size then invalid_arg "Kv_client: value too large"
  else if n = Kv_proto.value_size then v
  else v ^ String.make (Kv_proto.value_size - n) '\000'

let no_request =
  { Kv_proto.op = Kv_proto.Get; shard = 0; client_id = 0; seq = 0; key = ""; value = "" }

let no_finish (_ : outcome) = ()

let complete op outcome =
  let finish = op.finish in
  (match op.record with
  | Some (r : Obs.Op.t) ->
      r.connect_waits <- op.connect_waits;
      r.redirects <- op.redirected;
      r.election_backoffs <- op.election_backoffs;
      r.error_backoffs <- op.error_backoffs
  | None -> ());
  op.done_ <- true;
  Int_tbl.remove op.cl.ops op.id;
  op.live <- -1;
  op.request <- no_request;
  op.finish <- no_finish;
  finish outcome

let on_deadline op =
  if not op.done_ then begin
    op.cl.deadline_exceeded <- op.cl.deadline_exceeded + 1;
    complete op (Error `Deadline)
  end

(* Settles attempt [n] if it is the live one. *)
let settle op n =
  if (not op.done_) && op.live = n then begin
    op.live <- -1;
    true
  end
  else false

let rec attempt op n ~forced =
  if not op.done_ then begin
    let t = op.cl in
    let target =
      match forced with
      | Some h -> h
      | None -> (
          match Shard_map.leader_hint t.map ~shard:op.shard with
          | Some h -> h
          | None -> op.group.(n mod Array.length op.group))
    in
    let sess = session_to t target in
    if sess.Erpc.Session.state <> Erpc.Session.Connected then
      op.connect_waits <- op.connect_waits + 1;
    op.live <- n;
    op.target <- target;
    (* Each attempt carries its own timeout: a request parked behind a
       handshake whose Connect_req died with the target (SM messages to
       dead hosts vanish) gets no transport-level failure signal at all,
       and would otherwise sit wedged until the operation deadline. The
       late continuation, if any, finds the attempt settled and is ignored
       — a duplicate landing is what the (client_id, seq) dedup absorbs. *)
    Sim.Engine.post_after t.engine t.attempt_timeout_ns t.timeout_h
      ((op.id lsl attempt_bits) lor (n land attempt_mask));
    (* [~charge:false]: the service's handler-cost constants already
       model (de)serialization; double-charging would shift every chaos
       trace. The typed layer still owns encode/decode. *)
    let bufs = Pool.take t.bufs in
    Erpc.Typed.enqueue_request t.rpc sess ~req_type:Kv_proto.kv_req_type
      ~req_codec:Kv_proto.request_codec ~resp_codec:Kv_proto.response_codec
      ~backend:Codec.Compact ~charge:false ~req_buf:bufs.req_buf ~resp_buf:bufs.resp_buf
      op.request ~cont:(fun r ->
        (* A completed request's buffers are free for the next attempt. A
           failed one's are dropped: after a session reset, packets of the
           request may still be in flight, and they alias its buffer. *)
        (match r with Ok _ -> Pool.release op.cl.bufs bufs | Error _ -> ());
        if settle op n then on_response op n r)
  end

and on_attempt_timeout op n =
  if settle op n then begin
    let t = op.cl in
    invalidate_session t op.target;
    Shard_map.clear_hints_for t.map ~host:op.target;
    op.error_backoffs <- op.error_backoffs + 1;
    backoff op (n + 1)
  end

(* The outcome of the live attempt [n], sent to [op.target]. *)
and on_response op n r =
  let t = op.cl in
  let shard = op.shard and target = op.target in
  match r with
  | Ok (((Kv_proto.Ok_ | Kv_proto.Not_found), _) as outcome) ->
      t.ok <- t.ok + 1;
      Shard_map.set_leader_hint t.map ~shard ~host:target;
      complete op (Ok outcome)
  | Ok (Kv_proto.Not_leader (Some h), _) ->
      (* Follow the redirect immediately: the hint names the live leader
         in the common case, and a wrong hint just feeds back here — but
         only a bounded number of times before conceding the hints are
         stale and backing off. *)
      t.redirects <- t.redirects + 1;
      op.redirected <- op.redirected + 1;
      Shard_map.set_leader_hint t.map ~shard ~host:h;
      op.chase <- op.chase + 1;
      if op.chase <= 3 then attempt op (n + 1) ~forced:(Some h)
      else begin
        (* The hints are stale: no reachable leader is known. *)
        Shard_map.clear_leader_hint t.map ~shard;
        op.election_backoffs <- op.election_backoffs + 1;
        backoff op (n + 1)
      end
  | Ok (Kv_proto.Not_leader None, _) ->
      Shard_map.clear_leader_hint t.map ~shard;
      op.election_backoffs <- op.election_backoffs + 1;
      backoff op (n + 1)
  | Ok (Kv_proto.Retry hint, _) ->
      (match hint with Some h -> Shard_map.set_leader_hint t.map ~shard ~host:h | None -> ());
      op.election_backoffs <- op.election_backoffs + 1;
      backoff op (n + 1)
  | Error _ ->
      (* Transport-level failure: the target may be down — stop trusting
         sessions and hints that point at it. *)
      invalidate_session t target;
      Shard_map.clear_hints_for t.map ~host:target;
      op.error_backoffs <- op.error_backoffs + 1;
      backoff op (n + 1)

and backoff op n =
  let t = op.cl in
  op.chase <- 0;
  t.retries <- t.retries + 1;
  let exp = t.backoff_base_ns lsl min n 16 in
  let delay =
    min t.backoff_max_ns (max t.backoff_base_ns exp) + Sim.Rng.int t.rng t.backoff_base_ns
  in
  Sim.Engine.schedule_after t.engine delay (fun () -> attempt op n ~forced:None)

(* The two timer handlers: find the operation by id, if still in flight. *)
let on_deadline_event t id =
  match Int_tbl.find_opt t.ops id with Some op -> on_deadline op | None -> ()

let on_timeout_event t arg =
  match Int_tbl.find_opt t.ops (arg lsr attempt_bits) with
  | Some op when op.live >= 0 && op.live land attempt_mask = arg land attempt_mask ->
      on_attempt_timeout op op.live
  | _ -> ()

let create ~fabric ~rpc ~map ~client_id ?(backoff_base_ns = 500_000)
    ?(backoff_max_ns = 8_000_000) ?(attempt_timeout_ns = 5_000_000) () =
  if client_id < 0 || client_id >= 1 lsl 31 then
    invalid_arg "Kv_client.create: client_id must be in [0, 2^31)";
  let engine = Erpc.Fabric.engine fabric in
  let t =
    {
      fabric;
      rpc;
      engine;
      map;
      client_id;
      backoff_base_ns;
      backoff_max_ns;
      attempt_timeout_ns;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      seq = 0;
      sessions = Int_tbl.create 8;
      ok = 0;
      deadline_exceeded = 0;
      retries = 0;
      redirects = 0;
      bufs =
        Pool.create (fun () ->
            {
              req_buf = Erpc.Msgbuf.alloc ~max_size:Kv_proto.req_size;
              resp_buf = Erpc.Msgbuf.alloc ~max_size:Kv_proto.resp_max_size;
            });
      ops = Int_tbl.create 16;
      next_op = 0;
      deadline_h = Sim.Engine.no_handler;
      timeout_h = Sim.Engine.no_handler;
    }
  in
  t.deadline_h <- Sim.Engine.handler engine ~layer:Timer (on_deadline_event t);
  t.timeout_h <- Sim.Engine.handler engine ~layer:Timer (on_timeout_event t);
  t

(* The generic retry loop both operations run on. [finish] fires exactly
   once: the deadline event is armed up front and independent of any
   attempt, so an attempt wedged on a half-open connection cannot stall
   the operation past its deadline. *)
let exec ?record t ~(request : Kv_proto.request) ~deadline_ns ~(finish : outcome -> unit) =
  let shard = request.shard in
  let id = t.next_op in
  t.next_op <- id + 1;
  let op =
    {
      cl = t;
      id;
      shard;
      group = Shard_map.group t.map ~shard;
      request;
      finish;
      done_ = false;
      chase = 0;
      live = -1;
      target = -1;
      record;
      connect_waits = 0;
      redirected = 0;
      election_backoffs = 0;
      error_backoffs = 0;
    }
  in
  Int_tbl.replace t.ops id op;
  Sim.Engine.post_after t.engine deadline_ns t.deadline_h id;
  attempt op 0 ~forced:None

let put ?record t ~key ~value ~deadline_ns ~cont =
  assert (String.length key = Kv_proto.key_size);
  let seq = t.seq in
  t.seq <- t.seq + 1;
  let request =
    {
      Kv_proto.op = Kv_proto.Put;
      shard = Shard_map.shard_of_key t.map ~key;
      client_id = t.client_id;
      seq;
      key;
      value = pad_value value;
    }
  in
  exec ?record t ~request ~deadline_ns ~finish:(function
    | Ok _ -> cont (Ok ())
    | Error e -> cont (Error e));
  seq

let get ?record t ~key ~deadline_ns ~cont =
  assert (String.length key = Kv_proto.key_size);
  let seq = t.seq in
  t.seq <- t.seq + 1;
  let request =
    {
      Kv_proto.op = Kv_proto.Get;
      shard = Shard_map.shard_of_key t.map ~key;
      client_id = t.client_id;
      seq;
      key;
      value = "";
    }
  in
  exec ?record t ~request ~deadline_ns ~finish:(function
    | Ok (Kv_proto.Ok_, v) -> cont (Ok v)
    | Ok _ -> cont (Ok None)
    | Error e -> cont (Error e));
  seq
