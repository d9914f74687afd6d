(** Errors delivered to client continuations and session callbacks. *)

type t =
  | Server_failure  (** remote node declared failed (Appendix B) *)
  | Peer_unreachable
      (** session reset after [Config.max_retransmits] consecutive RTOs
          without progress (§4.3) — the peer crashed, restarted and lost
          session state, or is partitioned away *)
  | Session_error of string  (** connect refused / session torn down *)

val to_string : t -> string
