(** eRPC packet headers (paper §4.2.1, §5.1).

    Every packet carries a 16 B header with the request handler type, total
    message size, destination session, packet type and sequencing state.
    Four packet types exist: request data, response data, credit return
    (CR), and request-for-response (RFR). CRs and RFRs are header-only 16 B
    packets. *)

type pkt_type =
  | Req  (** request data packet *)
  | Cr  (** credit return: acks request packet [pkt_num] *)
  | Rfr  (** request-for-response: asks for response packet [pkt_num] *)
  | Resp  (** response data packet *)

(** Fields are mutable so that a pooled wire packet owns one header and
    {!Wire.make} rewrites it in place. *)
type t = {
  mutable req_type : int;  (** handler type registered at the server *)
  mutable msg_size : int;  (** total message bytes in this packet's direction *)
  mutable dest_session : int;  (** session number at the receiving endpoint *)
  mutable pkt_type : pkt_type;
  mutable pkt_num : int;
      (** Req/Resp: index of this data packet within the message;
          Cr: index of the request packet being acknowledged;
          Rfr: index of the response packet being requested. *)
  mutable req_num : int;  (** per-slot request sequence number (at-most-once) *)
  mutable token : int;
      (** session uniqueness token: both endpoints stamp the client-chosen
          fabric-unique token so a receiver can drop stale packets
          addressed to a recycled session number (e.g. from a peer that
          has not yet noticed a crash-restart) *)
}

val pp : Format.formatter -> t -> unit

(** [chunk_bytes ~mtu ~msg_size k]: bytes in the [k]-th MTU-sized chunk
    of an [msg_size]-byte message (0 past its end). *)
val chunk_bytes : mtu:int -> msg_size:int -> int -> int

(** Payload bytes carried by a data packet: the [pkt_num]-th chunk of its
    [msg_size]-byte message. Zero for CR/RFR. *)
val data_bytes : t -> mtu:int -> int
