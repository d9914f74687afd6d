(** Wire codec for {!Core.msg} with [string] commands, built on the
    shared {!Codec} schema layer (compact backend; wire bytes identical to
    the original hand-rolled encoder).

    The integration layer (Raft-over-eRPC, §7.1) writes these schemas into
    msgbufs; the Raft core itself never sees the encoding, mirroring how
    LibRaft delegates all marshalling to its user callbacks. *)

(** The message schema, for embedding in larger frames (e.g. the KV
    service's shard-routed Raft frame) or typed-RPC use. *)
val msg_codec : string Core.msg Codec.t

val encode : string Core.msg -> bytes

(** Raises {!Codec.Decode_error} on malformed input. *)
val decode : bytes -> string Core.msg

(** Encoded size, for sizing buffers without encoding twice. *)
val encoded_size : string Core.msg -> int
