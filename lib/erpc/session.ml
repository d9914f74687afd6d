type conn_state = Connect_pending | Connected | Error of string | Destroyed
type role = Client | Server

type req_args = {
  req_type : int;
  req : Msgbuf.t;
  resp : Msgbuf.t;
  on_complete : Msgbuf.t -> unit;
  cont : (unit, Err.t) result -> unit;
}

type client_info = {
  mutable num_tx : int;
  mutable num_rx : int;
  mutable max_tx : int;
  mutable n_req_pkts : int;
  mutable n_resp_pkts : int;
  mutable tx_ts : Sim.Time.t array;
  mutable wheel_refs : int;
  mutable retx_in_wheel : bool;
  mutable retransmits : int;
  mutable consec_retx : int;
}

type server_info = {
  mutable num_rx : int;
  mutable n_req_pkts : int;
  mutable handler_done : bool;
  mutable handler_running : bool;
  mutable req_buf : Msgbuf.t option;
  mutable spare_req_buf : Msgbuf.t option;
  mutable resp_buf : Msgbuf.t option;
}

type sslot = {
  index : int;
  session : session;
  mutable req_num : int;
  mutable busy : bool;
  mutable args : req_args option;
  mutable cli : client_info option;
  mutable srv : server_info option;
  mutable in_txq : bool;
  mutable in_credit_waitq : bool;
  mutable needs_retx : bool;
  mutable rto : Sim.Timer.t option;
  mutable issue_time : Sim.Time.t;
  mutable prealloc_resp : Msgbuf.t option;
}

and session = {
  sn : int;
  role : role;
  token : int;
  remote_host : int;
  remote_rpc_id : int;
  mutable remote_sn : int;
  mutable state : conn_state;
  slots : sslot option array;
  mutable credits : int;
  credit_limit : int;
  backlog : req_args Queue.t;
  credit_waiters : sslot Queue.t;
  mutable cc : Timely.t option;
  mutable next_tx_ts : Sim.Time.t;
  mutable connect_cb : (unit, Err.t) result -> unit;
  mutable retransmits : int;
}

let create ~sn ~role ~token ~remote_host ~remote_rpc_id ~credits =
  {
    sn;
    role;
    token;
    remote_host;
    remote_rpc_id;
    remote_sn = -1;
    state = Connect_pending;
    slots = Array.make Config.req_window None;
    credits;
    credit_limit = credits;
    backlog = Queue.create ();
    credit_waiters = Queue.create ();
    cc = None;
    next_tx_ts = Sim.Time.zero;
    connect_cb = (fun _ -> ());
    retransmits = 0;
  }

let slot session i =
  match session.slots.(i) with
  | Some s -> s
  | None ->
      let s =
        {
          index = i;
          session;
          (* First request on slot i carries req_num = i; subsequent ones
             step by the window size so [req_num mod window] recovers the
             slot at the receiver. *)
          req_num = i - Array.length session.slots;
          busy = false;
          args = None;
          cli = None;
          srv = None;
          in_txq = false;
          in_credit_waitq = false;
          needs_retx = false;
          rto = None;
          issue_time = Sim.Time.zero;
          prealloc_resp = None;
        }
      in
      session.slots.(i) <- Some s;
      s

let client_info sslot ~credits =
  match sslot.cli with
  | Some c -> c
  | None ->
      let c =
        {
          num_tx = 0;
          num_rx = 0;
          max_tx = 0;
          n_req_pkts = 0;
          n_resp_pkts = -1;
          tx_ts = Array.make (max 1 credits) Sim.Time.zero;
          wheel_refs = 0;
          retx_in_wheel = false;
          retransmits = 0;
          consec_retx = 0;
        }
      in
      sslot.cli <- Some c;
      c

let server_info sslot =
  match sslot.srv with
  | Some s -> s
  | None ->
      let s =
        {
          num_rx = 0;
          n_req_pkts = 0;
          handler_done = false;
          handler_running = false;
          req_buf = None;
          spare_req_buf = None;
          resp_buf = None;
        }
      in
      sslot.srv <- Some s;
      s

let free_slot session =
  let rec go i =
    if i >= Config.req_window then None
    else
      match session.slots.(i) with
      | None -> Some (slot session i)
      | Some s when not s.busy -> Some s
      | Some _ -> go (i + 1)
  in
  go 0

let outstanding_packets session =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some ({ busy = true; cli = Some c; _ } as s) when s.session.role = Client ->
          acc + (c.num_tx - c.num_rx)
      | _ -> acc)
    0 session.slots
