(** Session-management messages (paper Appendix B).

    eRPC runs session creation/teardown and failure detection over an
    out-of-band sockets channel handled by a per-process management thread;
    we model that channel as direct engine events with a configurable
    latency, far off the datapath. *)

type msg =
  | Connect_req of {
      client_host : int;
      client_rpc : int;
      client_sn : int;
      token : int;  (** fabric-unique session token chosen by the client *)
      credits : int;
    }
  | Connect_resp of { client_sn : int; result : (int, string) result }
      (** [result] carries the server-side session number on success *)
  | Disconnect of { server_sn : int; client_sn : int }
  | Disconnect_ack of { client_sn : int }
