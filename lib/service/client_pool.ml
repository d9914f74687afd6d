type t = { clients : Kv_client.t array; mutable cursor : int }

let create ~fabric ~map ~rpcs ~base_client_id ~clients_per_rpc ?backoff_base_ns
    ?backoff_max_ns ?attempt_timeout_ns () =
  if Array.length rpcs = 0 then invalid_arg "Client_pool.create: no rpcs";
  if clients_per_rpc <= 0 then invalid_arg "Client_pool.create: clients_per_rpc <= 0";
  let hosts = Array.length rpcs in
  let clients =
    Array.init (hosts * clients_per_rpc) (fun i ->
        (* Host-major cycling: slot i lives on rpc (i mod hosts), so the
           round-robin cursor alternates source hosts. *)
        Kv_client.create ~fabric ~rpc:rpcs.(i mod hosts) ~map
          ~client_id:(base_client_id + i) ?backoff_base_ns ?backoff_max_ns
          ?attempt_timeout_ns ())
  in
  { clients; cursor = 0 }

let size t = Array.length t.clients

let next_client t =
  let c = t.clients.(t.cursor) in
  t.cursor <- (t.cursor + 1) mod Array.length t.clients;
  c

let sum f t = Array.fold_left (fun acc c -> acc + f c) 0 t.clients

let ok = sum Kv_client.ok
let deadline_exceeded = sum Kv_client.deadline_exceeded
let retries = sum Kv_client.retries
let redirects = sum Kv_client.redirects
