type t = Server_failure | Peer_unreachable | Session_error of string

let to_string = function
  | Server_failure -> "server failure"
  | Peer_unreachable -> "peer unreachable"
  | Session_error s -> "session error: " ^ s

