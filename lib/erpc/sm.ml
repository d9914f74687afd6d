type msg =
  | Connect_req of {
      client_host : int;
      client_rpc : int;
      client_sn : int;
      token : int;
      credits : int;
    }
  | Connect_resp of { client_sn : int; result : (int, string) result }
  | Disconnect of { server_sn : int; client_sn : int }
  | Disconnect_ack of { client_sn : int }

