(* Typed RPC over msgbufs: encode directly into TX buffers, decode
   zero-copy from RX views, and charge the modeled per-field codec cost to
   the owning CPU at the point on the datapath where the work happens. *)

let write ?(backend = Codec.Compact) c m v =
  if Msgbuf.owner m = Msgbuf.Owned_by_erpc then
    invalid_arg "Typed.write: msgbuf is in flight (eRPC-owned)";
  let n = Codec.encoded_size ~backend c v in
  if n > Msgbuf.max_size m then
    invalid_arg
      (Printf.sprintf "Typed.write: encoded size %d exceeds msgbuf capacity %d" n
         (Msgbuf.max_size m));
  Msgbuf.resize m n;
  ignore (Codec.encode ~backend c (Msgbuf.unsafe_bytes m) (Msgbuf.unsafe_offset m) v)

(* The storage of a msgbuf that is not a view is exactly its capacity, so
   the encoder's bounds-checked stores stop an overrun at the buffer's
   end. *)
let write_within ?(backend = Codec.Compact) c m v =
  if Msgbuf.owner m = Msgbuf.Owned_by_erpc then
    invalid_arg "Typed.write_within: msgbuf is in flight (eRPC-owned)";
  if Msgbuf.is_view m then invalid_arg "Typed.write_within: msgbuf is a view";
  let off = Msgbuf.unsafe_offset m in
  let fin = Codec.encode ~backend c (Msgbuf.unsafe_bytes m) off v in
  Msgbuf.resize m (fin - off)

let read ?(backend = Codec.Compact) c m =
  Codec.decode ~backend c (Msgbuf.unsafe_bytes m) ~off:(Msgbuf.unsafe_offset m)
    ~len:(Msgbuf.size m)

let alloc_and_write ?(backend = Codec.Compact) c v =
  let m = Msgbuf.alloc ~max_size:(Codec.encoded_size ~backend c v) in
  write ~backend c m v;
  m

(* {2 Client side} *)

let enqueue_request rpc sess ~req_type ~req_codec ~resp_codec ?backend ?(charge = true)
    ?req_buf ?resp_buf v ~cont =
  let backend = match backend with Some b -> b | None -> Rpc.codec_backend rpc in
  let n = Codec.encoded_size ~backend req_codec v in
  let req =
    match req_buf with
    | Some m ->
        write ~backend req_codec m v;
        m
    | None -> alloc_and_write ~backend req_codec v
  in
  (* Serialization happens (and is charged) before admission, so its span
     sits between the request's start and its first TX. *)
  if charge then
    Rpc.charge_codec ~backend rpc ~deser:false
      ~leaves:(Codec.encoded_leaves ~backend req_codec v)
      ~bytes:n;
  let resp =
    match resp_buf with
    | Some m -> m
    | None ->
        let max_size =
          match backend with
          | Codec.Flat when Codec.flat_capable resp_codec -> Codec.flat_size resp_codec
          | _ -> (
              match Codec.bound resp_codec with
              | Some b -> b
              | None ->
                  invalid_arg
                    "Typed.enqueue_request: response codec is unbounded; pass ~resp_buf")
        in
        Msgbuf.alloc ~max_size
  in
  let decoded = ref None in
  let on_complete resp_m =
    match read ~backend resp_codec resp_m with
    | r ->
        if charge then
          Rpc.charge_codec ~backend rpc ~deser:true
            ~leaves:(Codec.encoded_leaves ~backend resp_codec r)
            ~bytes:(Msgbuf.size resp_m);
        decoded := Some (Ok r)
    | exception Codec.Decode_error e ->
        decoded := Some (Error (Err.Session_error ("response decode: " ^ e)))
  in
  Rpc.enqueue_request_hooked rpc sess ~req_type ~req ~resp ~on_complete ~cont:(function
    | Ok () -> (
        match !decoded with
        | Some r -> cont r
        | None -> cont (Error (Err.Session_error "typed completion without response")))
    | Error e -> cont (Error e))

(* {2 Server side} *)

let read_request h c =
  let backend = Req_handle.codec_backend h in
  let m = Req_handle.get_request h in
  let v = read ~backend c m in
  Req_handle.charge_codec h ~deser:true ~backend
    ~leaves:(Codec.encoded_leaves ~backend c v)
    ~bytes:(Msgbuf.size m);
  v

let respond h c v =
  let backend = Req_handle.codec_backend h in
  let n = Codec.encoded_size ~backend c v in
  let resp = Req_handle.init_response h ~size:n in
  ignore (Codec.encode ~backend c (Msgbuf.unsafe_bytes resp) (Msgbuf.unsafe_offset resp) v);
  Req_handle.charge_codec h ~deser:false ~backend
    ~leaves:(Codec.encoded_leaves ~backend c v)
    ~bytes:n;
  Req_handle.enqueue_response h resp

(* {2 Lazy request views} *)

type 'a view = {
  v_codec : 'a Codec.t;
  v_backend : Codec.backend;
  v_bytes : bytes;
  v_base : int;
  v_len : int;
  v_lazy : bool;
  v_charge : leaves:int -> bytes:int -> unit;
  mutable v_forced : 'a option;
}

let force v =
  match v.v_forced with
  | Some x -> x
  | None ->
      let x =
        Codec.decode ~backend:v.v_backend v.v_codec v.v_bytes ~off:v.v_base ~len:v.v_len
      in
      v.v_charge
        ~leaves:(Codec.encoded_leaves ~backend:v.v_backend v.v_codec x)
        ~bytes:v.v_len;
      v.v_forced <- Some x;
      x

let view_request h c =
  let backend = Req_handle.codec_backend h in
  let m = Req_handle.get_request h in
  let v =
    {
      v_codec = c;
      v_backend = backend;
      v_bytes = Msgbuf.unsafe_bytes m;
      v_base = Msgbuf.unsafe_offset m;
      v_len = Msgbuf.size m;
      v_lazy = (backend = Codec.Flat && Codec.flat_capable c);
      v_charge = Req_handle.charge_codec h ~deser:true ~backend;
      v_forced = None;
    }
  in
  (* Compact layouts have no per-field addressing: decode (and charge)
     everything up front so accessors are pure projections. *)
  if not v.v_lazy then ignore (force v);
  v

let is_lazy v = v.v_lazy && v.v_forced = None

let view_int v ~leaf ~fallback =
  if is_lazy v then begin
    v.v_charge ~leaves:1 ~bytes:(Codec.leaf_bytes v.v_codec ~leaf);
    Codec.get_leaf_int v.v_codec v.v_bytes ~base:v.v_base ~leaf
  end
  else fallback (force v)
