type role = Follower | Candidate | Leader

type 'cmd msg =
  | Request_vote of {
      term : int;
      candidate_id : int;
      last_log_index : int;
      last_log_term : int;
    }
  | Request_vote_resp of { term : int; vote_granted : bool; from : int }
  | Append_entries of {
      term : int;
      leader_id : int;
      prev_log_index : int;
      prev_log_term : int;
      entries : 'cmd Log.entry list;
      leader_commit : int;
    }
  | Append_entries_resp of { term : int; success : bool; from : int; match_index : int }

let election_timeout_min_ns = 10_000_000
let election_timeout_max_ns = 20_000_000
let heartbeat_ns = 2_000_000
let max_entries_per_msg = 64

(* Persistent state (paper Figure 2): the core reads and writes the record
   in place, so keeping it across a simulated crash and passing it back to
   [create] models a node restarting from disk. *)
type 'cmd stable = {
  mutable s_term : int;
  mutable s_voted_for : int option;
  s_log : 'cmd Log.t;
}

let stable () = { s_term = 0; s_voted_for = None; s_log = Log.create () }

type 'cmd t = {
  id : int;
  peers : int array;
  send : int -> 'cmd msg -> unit;
  apply : int -> 'cmd -> unit;
  random : int -> int;
  notify : unit -> unit;
  stable : 'cmd stable;
  mutable role : role;
  mutable leader : int option;
  mutable commit_index : int;
  mutable last_applied : int;
  mutable election_elapsed : int;
  mutable election_deadline : int;
  mutable heartbeat_elapsed : int;
  mutable votes : int;
  (* Leader replication state, indexed like [peers]. *)
  mutable next_index : int array;
  mutable match_index : int array;
  commit_scratch : int array;  (* [try_advance_commit]'s working copy *)
}

let fresh_election_deadline t =
  election_timeout_min_ns
  + t.random (max 1 (election_timeout_max_ns - election_timeout_min_ns))

let create ~id ~peers ?stable:st ?(notify = fun () -> ()) ~send ~apply ~random () =
  let st = match st with Some s -> s | None -> stable () in
  let t =
    {
      id;
      peers;
      send;
      apply;
      random;
      notify;
      stable = st;
      role = Follower;
      leader = None;
      commit_index = 0;
      last_applied = 0;
      election_elapsed = 0;
      election_deadline = 0;
      heartbeat_elapsed = 0;
      votes = 0;
      next_index = Array.make (Array.length peers) 1;
      match_index = Array.make (Array.length peers) 0;
      commit_scratch = Array.make (Array.length peers + 1) 0;
    }
  in
  t.election_deadline <- fresh_election_deadline t;
  t

let id t = t.id
let role t = t.role
let term t = t.stable.s_term
let commit_index t = t.commit_index
let last_applied t = t.last_applied
let leader_hint t = t.leader
let log t = t.stable.s_log
let stable_of t = t.stable

(* Role/leadership transitions funnel through these two so that [notify]
   fires exactly when the externally observable leadership view changes. *)
let set_role t role =
  if t.role <> role then begin
    t.role <- role;
    t.notify ()
  end

let set_leader t leader =
  if t.leader <> leader then begin
    t.leader <- leader;
    t.notify ()
  end

(* [set_leader t (Some id)] without boxing [Some id] when [id] already
   leads, the case on every AppendEntries a follower receives. *)
let set_leader_id t id =
  match t.leader with Some l when l = id -> () | _ -> set_leader t (Some id)

let apply_committed t =
  while t.last_applied < t.commit_index do
    t.last_applied <- t.last_applied + 1;
    t.apply t.last_applied (Log.get t.stable.s_log t.last_applied).cmd
  done

let become_follower t term =
  set_role t Follower;
  if term > t.stable.s_term then begin
    t.stable.s_term <- term;
    t.stable.s_voted_for <- None
  end;
  t.election_elapsed <- 0;
  t.election_deadline <- fresh_election_deadline t

let peer_slot t peer =
  let rec go i = if t.peers.(i) = peer then i else go (i + 1) in
  go 0

let send_append_entries t ~peer =
  let slot = peer_slot t peer in
  let next = t.next_index.(slot) in
  let prev = next - 1 in
  let entries = Log.entries_from t.stable.s_log ~from:next ~max:max_entries_per_msg in
  t.send peer
    (Append_entries
       {
         term = t.stable.s_term;
         leader_id = t.id;
         prev_log_index = prev;
         prev_log_term = Log.term_at t.stable.s_log prev;
         entries;
         leader_commit = t.commit_index;
       })

let broadcast_append_entries t = Array.iter (fun p -> send_append_entries t ~peer:p) t.peers

let become_leader t =
  set_role t Leader;
  set_leader t (Some t.id);
  t.heartbeat_elapsed <- 0;
  let last = Log.last_index t.stable.s_log in
  Array.iteri
    (fun i _ ->
      t.next_index.(i) <- last + 1;
      t.match_index.(i) <- 0)
    t.peers;
  broadcast_append_entries t

let start_election t =
  set_role t Candidate;
  t.stable.s_term <- t.stable.s_term + 1;
  t.stable.s_voted_for <- Some t.id;
  t.votes <- 1;
  set_leader t None;
  t.election_elapsed <- 0;
  t.election_deadline <- fresh_election_deadline t;
  let last_log_index = Log.last_index t.stable.s_log in
  let last_log_term = Log.last_term t.stable.s_log in
  Array.iter
    (fun p ->
      t.send p
        (Request_vote
           { term = t.stable.s_term; candidate_id = t.id; last_log_index; last_log_term }))
    t.peers;
  (* Single-node group: immediately a leader. *)
  if Array.length t.peers = 0 then become_leader t

(* The highest index held by a majority: the (n/2 + 1)-th largest of the
   [n] match indexes. An insertion sort in place — groups have a handful of
   members, and it allocates nothing. *)
let majority_match a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  a.(n - ((n / 2) + 1))

(* Only entries of the current term commit directly (§5.4.2). *)
let try_advance_commit t =
  let matches = t.commit_scratch in
  matches.(0) <- Log.last_index t.stable.s_log;
  Array.blit t.match_index 0 matches 1 (Array.length t.peers);
  let majority_match = majority_match matches in
  if
    majority_match > t.commit_index
    && Log.term_at t.stable.s_log majority_match = t.stable.s_term
  then begin
    t.commit_index <- majority_match;
    apply_committed t
  end

let handle_request_vote t ~term ~candidate_id ~last_log_index ~last_log_term =
  if term > t.stable.s_term then become_follower t term;
  let up_to_date =
    last_log_term > Log.last_term t.stable.s_log
    || (last_log_term = Log.last_term t.stable.s_log
       && last_log_index >= Log.last_index t.stable.s_log)
  in
  let grant =
    term >= t.stable.s_term && up_to_date
    && (match t.stable.s_voted_for with None -> true | Some v -> v = candidate_id)
  in
  if grant then begin
    t.stable.s_voted_for <- Some candidate_id;
    t.election_elapsed <- 0
  end;
  t.send candidate_id
    (Request_vote_resp { term = t.stable.s_term; vote_granted = grant; from = t.id })

let handle_vote_resp t ~term ~vote_granted ~from:_ =
  if term > t.stable.s_term then become_follower t term
  else if t.role = Candidate && term = t.stable.s_term && vote_granted then begin
    t.votes <- t.votes + 1;
    let majority = ((Array.length t.peers + 1) / 2) + 1 in
    if t.votes >= majority then become_leader t
  end

(* Appends [entries] after index [prev], resolving conflicts by
   truncation; returns the index of the last entry. *)
let rec append_from log prev = function
  | [] -> prev
  | (entry : _ Log.entry) :: rest ->
      let idx = prev + 1 in
      if idx <= Log.last_index log then begin
        if Log.term_at log idx <> entry.term then begin
          Log.truncate_from log idx;
          ignore (Log.append log entry)
        end
      end
      else ignore (Log.append log entry);
      append_from log idx rest

let handle_append_entries t ~term ~leader_id ~prev_log_index ~prev_log_term ~entries
    ~leader_commit =
  if term < t.stable.s_term then
    t.send leader_id
      (Append_entries_resp
         { term = t.stable.s_term; success = false; from = t.id; match_index = 0 })
  else begin
    become_follower t term;
    set_leader_id t leader_id;
    let log = t.stable.s_log in
    let log_ok =
      prev_log_index <= Log.last_index log && Log.term_at log prev_log_index = prev_log_term
    in
    if not log_ok then
      t.send leader_id
        (Append_entries_resp
           { term = t.stable.s_term; success = false; from = t.id; match_index = 0 })
    else begin
      let match_index = append_from log prev_log_index entries in
      if leader_commit > t.commit_index then begin
        t.commit_index <- min leader_commit match_index;
        apply_committed t
      end;
      t.send leader_id
        (Append_entries_resp
           { term = t.stable.s_term; success = true; from = t.id; match_index })
    end
  end

let handle_append_resp t ~term ~success ~from ~match_index =
  if term > t.stable.s_term then become_follower t term
  else if t.role = Leader && term = t.stable.s_term then begin
    let slot = peer_slot t from in
    if success then begin
      if match_index > t.match_index.(slot) then t.match_index.(slot) <- match_index;
      t.next_index.(slot) <- max t.next_index.(slot) (match_index + 1);
      try_advance_commit t;
      (* Keep streaming if the follower is still behind. *)
      if t.next_index.(slot) <= Log.last_index t.stable.s_log then
        send_append_entries t ~peer:from
    end
    else begin
      (* Log mismatch: back off and retry. *)
      t.next_index.(slot) <- max 1 (t.next_index.(slot) - 1);
      send_append_entries t ~peer:from
    end
  end

let receive t msg =
  match msg with
  | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
      handle_request_vote t ~term ~candidate_id ~last_log_index ~last_log_term
  | Request_vote_resp { term; vote_granted; from } -> handle_vote_resp t ~term ~vote_granted ~from
  | Append_entries { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit } ->
      handle_append_entries t ~term ~leader_id ~prev_log_index ~prev_log_term ~entries
        ~leader_commit
  | Append_entries_resp { term; success; from; match_index } ->
      handle_append_resp t ~term ~success ~from ~match_index

let periodic t ~elapsed_ns =
  match t.role with
  | Leader ->
      t.heartbeat_elapsed <- t.heartbeat_elapsed + elapsed_ns;
      if t.heartbeat_elapsed >= heartbeat_ns then begin
        t.heartbeat_elapsed <- 0;
        broadcast_append_entries t
      end
  | Follower | Candidate ->
      t.election_elapsed <- t.election_elapsed + elapsed_ns;
      if t.election_elapsed >= t.election_deadline then start_election t

let submit t cmd =
  match t.role with
  | Leader ->
      let index = Log.append t.stable.s_log { term = t.stable.s_term; cmd } in
      broadcast_append_entries t;
      (* Single-node group commits immediately. *)
      try_advance_commit t;
      Ok index
  | Follower | Candidate -> Error (`Not_leader t.leader)
