(** Raft consensus core (Ongaro & Ousterhout, ATC '14), modeled on the C
    LibRaft the paper ports to eRPC (§7.1): the protocol is a pure state
    machine whose only requirement is that "the user provide callbacks for
    sending and handling RPCs". Time advances only through [periodic], and
    randomness comes from a caller-supplied source — there are no
    dependencies on the simulator, so integrations (our eRPC one included)
    need no changes to this module.

    Scope: leader election, log replication and commitment, and follower
    log repair. Log compaction/snapshots and membership changes are out of
    scope, as in the paper's evaluation. *)

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

(** Timing, in the ns that {!periodic} advances: a follower or candidate
    starts an election after a random timeout in [\[10 ms, 20 ms)], and a
    leader sends heartbeats every 2 ms. *)
val election_timeout_max_ns : int

val heartbeat_ns : int

(** Most entries one AppendEntries carries. *)
val max_entries_per_msg : int

(** {2 Stable storage}

    Raft's safety argument requires [currentTerm], [votedFor] and the log
    to survive crashes (Figure 2 of the paper: "persistent state"). A
    {!stable} record models that disk: the core reads and writes it in
    place, so an integration that keeps the record across a simulated
    crash and passes it back to {!create} restarts the node exactly where
    stable storage left it — as a follower, with volatile state
    (commit index, role, leadership) rebuilt through the protocol. *)
type 'cmd stable

type 'cmd t

(** [create ~id ~peers ~send ~apply ~random ()] — [send dst msg] transmits
    a message (the integration layer serializes it however it likes);
    [apply index cmd] is invoked exactly once per committed entry, in index
    order; [random n] returns a uniform int in [0, n) for election
    jitter.

    [?stable] supplies persistent state from a previous incarnation (see
    {!stable}); omitting it is a first boot. [?notify] is invoked whenever
    the node's role or its view of the current leader changes — the hook
    replication services use to fail over pending client operations and
    publish leadership to clients. It must not call back into the core. *)
val create :
  id:int ->
  peers:int array ->
  ?stable:'cmd stable ->
  ?notify:(unit -> unit) ->
  send:(int -> 'cmd msg -> unit) ->
  apply:(int -> 'cmd -> unit) ->
  random:(int -> int) ->
  unit ->
  'cmd t

val id : 'cmd t -> int
val role : 'cmd t -> role
val term : 'cmd t -> int
val commit_index : 'cmd t -> int
val last_applied : 'cmd t -> int

(** The node's stable storage — the same record passed to (or created by)
    {!create}. Keep it across a crash and pass it to the next
    incarnation's {!create}. *)
val stable_of : 'cmd t -> 'cmd stable

(** Current leader as known locally, if any. *)
val leader_hint : 'cmd t -> int option

val log : 'cmd t -> 'cmd Log.t

(** Feed an incoming message. *)
val receive : 'cmd t -> 'cmd msg -> unit

(** Advance protocol time: election timeouts and heartbeats. Call
    regularly (LibRaft's [raft_periodic]). *)
val periodic : 'cmd t -> elapsed_ns:int -> unit

(** Submit a command. On the leader, appends and replicates immediately,
    returning the entry's log index. *)
val submit : 'cmd t -> 'cmd -> (int, [ `Not_leader of int option ]) result

(** [majority_match a] is the highest index held by a majority of a
    group whose members' match indexes are [a] (non-empty): the
    [(n/2 + 1)]-th largest of the [n] values. Sorts [a] in place and
    allocates nothing. *)
val majority_match : int array -> int
