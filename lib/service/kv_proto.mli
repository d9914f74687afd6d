(** Wire protocol of the sharded replicated-KV service, defined as
    {!Codec} schemas (compact backend pinned — these layouts are frozen;
    same-seed chaos traces must stay byte-identical across refactors).

    Two request types share every replica host:

    - [raft_req_type]: replica-to-replica Raft transport. The frame is the
      4-byte shard id followed by {!Raft.Wire} bytes; the response carries
      the Raft reply the core produced while handling it (AE/RV responses
      ride back as eRPC responses, halving message count exactly as the
      paper's Raft-over-eRPC integration does in §7.1).

    - [kv_req_type]: client operations. Every request names its shard and
      carries a (client id, sequence number) pair; the pair rides inside
      replicated PUT commands so replicas can deduplicate retries — the
      exactly-once contract the smart client's retry loop relies on.

    All integers are little-endian u32. *)

val raft_req_type : int
val kv_req_type : int

val key_size : int
val value_size : int

(** {2 Client operations} *)

type op = Put | Get

type request = {
  op : op;
  shard : int;
  client_id : int;
  seq : int;
  key : string;  (** [key_size] bytes *)
  value : string;  (** [value_size] bytes; ignored (empty) for GET *)
}

(** Response status codes. [Not_leader] and [Retry] carry an optional
    leader hint (a host id) when the replica knows one. *)
type status =
  | Ok_
  | Not_leader of int option
  | Retry of int option
  | Not_found

val req_size : int
val resp_max_size : int

(** Schema of {!request}: op(4) shard(4) client_id(4) seq(4) key value,
    with GET values zero-padded to [value_size]. Flat-capable. *)
val request_codec : request Codec.t

(** Schema of [(status, value)]: status(4) hint(4), value present iff
    bytes remain past the header (so the codec is compact-only). *)
val response_codec : (status * string option) Codec.t

val write_request : Erpc.Msgbuf.t -> request -> unit
val read_request : Erpc.Msgbuf.t -> request

(** Exact response size for a status/value pair; allocate or
    [init_response] with this before {!write_response}. *)
val resp_size : value:string option -> int

(** Encodes the response in one pass into [m], which must hold at least
    [resp_size ~value] bytes, and resizes [m] to the response's length. *)
val write_response : Erpc.Msgbuf.t -> status:status -> value:string option -> unit

(** [read_response m] is [(status, value)]. *)
val read_response : Erpc.Msgbuf.t -> status * string option

(** {2 Replicated commands}

    A PUT is replicated as a fixed-layout string command:
    client_id(4) ^ seq(4) ^ key ^ value. *)

val cmd_size : int

(** Schema of [(client_id, seq, key, value)] commands. *)
val cmd_codec : (int * int * string * string) Codec.t

val encode_cmd : client_id:int -> seq:int -> key:string -> value:string -> string

(** Reserved client id of leader no-op barrier entries. A freshly elected
    leader replicates one no-op so that entries from previous terms become
    committable under §5.4.2 (the LibRaft/etcd idiom); replicas apply it
    as "do nothing". Real clients never use this id. *)
val noop_client_id : int

(** A no-op command with the given (node-local) sequence number. *)
val noop_cmd : seq:int -> string

val decode_cmd : string -> int * int * string * string
(** [(client_id, seq, key, value)]. Raises {!Codec.Decode_error} on a
    malformed command. *)

(** {2 Raft frames} *)

(** Schema of [(shard, msg)] frames: shard(4) ^ {!Raft.Wire.msg_codec}
    bytes. *)
val raft_frame_codec : (int * string Raft.Core.msg) Codec.t

(** Exact frame size for a message: 4 bytes of shard id plus the codec
    bytes. *)
val raft_frame_size : string Raft.Core.msg -> int

(** Size of the largest reply frame (an AppendEntries response). *)
val raft_reply_max_size : int

(** Size of an AppendEntries frame carrying [max_entries] commands of
    [cmd_size] bytes: the largest frame a replica sends. *)
val raft_frame_capacity : max_entries:int -> int

(** Encodes the frame in one pass into [m], which must already be large
    enough, and resizes [m] to the frame's length. Raises
    [Invalid_argument] if the frame does not fit. *)
val write_raft_frame : Erpc.Msgbuf.t -> shard:int -> string Raft.Core.msg -> unit
val read_raft_frame : Erpc.Msgbuf.t -> int * string Raft.Core.msg
