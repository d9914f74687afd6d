type ownership = Owned_by_app | Owned_by_erpc

(* Storage on first access: a buffer nobody has written or read holds
   [Netsim.Packet.length_only] (with [offset] 0) instead of bytes, so a
   bulk payload the simulation only measures costs no host memory, and
   packets cut from it carry their length alone. Its bytes read as
   zeros. *)
type t = {
  mutable bytes : bytes;
  offset : int;  (* start of data region within [bytes] *)
  max_size : int;
  mutable data_size : int;
  mutable owner : ownership;
  is_view : bool;
}

let length_only = Netsim.Packet.length_only

let alloc ~max_size =
  assert (max_size >= 0);
  {
    bytes = length_only;
    offset = 0;
    max_size;
    data_size = max_size;
    owner = Owned_by_app;
    is_view = false;
  }

let view bytes ~off ~len =
  let no_storage = bytes == length_only in
  assert (len >= 0 && (no_storage || (off >= 0 && off + len <= Bytes.length bytes)));
  {
    bytes;
    offset = (if no_storage then 0 else off);
    max_size = len;
    data_size = len;
    owner = Owned_by_erpc;
    is_view = true;
  }

let storage t =
  if t.bytes == length_only then t.bytes <- Bytes.make t.max_size '\000';
  t.bytes

let payload t = t.bytes

let max_size t = t.max_size
let size t = t.data_size

let resize t n =
  if t.owner = Owned_by_erpc && not t.is_view then
    invalid_arg "Msgbuf.resize: buffer is owned by eRPC (in flight)";
  if n < 0 || n > t.max_size then invalid_arg "Msgbuf.resize: size out of bounds";
  t.data_size <- n

let owner t = t.owner
let is_view t = t.is_view

let take_for_erpc t =
  match t.owner with
  | Owned_by_erpc ->
      invalid_arg "Msgbuf: buffer already owned by eRPC (double enqueue or reuse before continuation)"
  | Owned_by_app -> t.owner <- Owned_by_erpc

let return_to_app t =
  match t.owner with
  | Owned_by_app -> invalid_arg "Msgbuf: returning a buffer that eRPC does not own"
  | Owned_by_erpc -> t.owner <- Owned_by_app

let num_pkts t ~mtu =
  assert (mtu > 0);
  if t.data_size = 0 then 1 else (t.data_size + mtu - 1) / mtu

let check_app_access t what =
  if t.owner = Owned_by_erpc && not t.is_view then
    invalid_arg
      (Printf.sprintf "Msgbuf.%s: buffer is in flight (owned by eRPC); wait for the continuation"
         what)

let check_bounds t ~off ~len what =
  if off < 0 || len < 0 || off + len > t.max_size then
    invalid_arg (Printf.sprintf "Msgbuf.%s: out of bounds (off=%d len=%d max=%d)" what off len t.max_size)

let write_string t ~off s =
  check_app_access t "write_string";
  check_bounds t ~off ~len:(String.length s) "write_string";
  Bytes.blit_string s 0 (storage t) (t.offset + off) (String.length s)

let read_string t ~off ~len =
  check_bounds t ~off ~len "read_string";
  Bytes.sub_string (storage t) (t.offset + off) len

let set_u32 t ~off v =
  check_app_access t "set_u32";
  check_bounds t ~off ~len:4 "set_u32";
  Bytes.set_int32_le (storage t) (t.offset + off) (Int32.of_int v)

let get_u32 t ~off =
  check_bounds t ~off ~len:4 "get_u32";
  Int32.to_int (Bytes.get_int32_le (storage t) (t.offset + off)) land 0xFFFFFFFF

let set_u64 t ~off v =
  check_app_access t "set_u64";
  check_bounds t ~off ~len:8 "set_u64";
  Bytes.set_int64_le (storage t) (t.offset + off) (Int64.of_int v)

let get_u64 t ~off =
  check_bounds t ~off ~len:8 "get_u64";
  Int64.to_int (Bytes.get_int64_le (storage t) (t.offset + off))

let unsafe_bytes = storage
let unsafe_offset t = t.offset

let unsafe_set_size t n =
  if n < 0 || n > t.max_size then invalid_arg "Msgbuf.unsafe_set_size: size out of bounds";
  t.data_size <- n

(* Unwritten bytes are zeros: a length-only source copies nothing into a
   buffer without storage, and zero-fills the range of one with it. *)
let blit_from_bytes src ~src_off t ~dst_off ~len =
  check_bounds t ~off:dst_off ~len "blit_from_bytes";
  if src != length_only then Bytes.blit src src_off (storage t) (t.offset + dst_off) len
  else if t.bytes != length_only then Bytes.fill t.bytes (t.offset + dst_off) len '\000'

let blit ~src ~src_off ~dst ~dst_off ~len =
  check_bounds src ~off:src_off ~len "blit(src)";
  check_bounds dst ~off:dst_off ~len "blit(dst)";
  blit_from_bytes src.bytes ~src_off:(src.offset + src_off) dst ~dst_off ~len
