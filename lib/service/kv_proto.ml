let raft_req_type = 20
let kv_req_type = 21

let key_size = 16
let value_size = 64

type op = Put | Get

type request = {
  op : op;
  shard : int;
  client_id : int;
  seq : int;
  key : string;
  value : string;
}

type status =
  | Ok_
  | Not_leader of int option
  | Retry of int option
  | Not_found

(* Every schema below is pinned to the compact backend: these are the
   service's frozen wire formats (same-seed chaos traces must stay
   byte-identical across refactors), independent of whatever backend the
   endpoint's [Config.codec_backend] selects for typed workloads. *)
let backend = Codec.Compact

(* Request: op(4) shard(4) client_id(4) seq(4) key value. GETs carry a
   zero-filled value region so one fixed layout serves both ops. *)
let req_size = 16 + key_size + value_size

let zero_value = String.make value_size '\000'

let request_codec : request Codec.t =
  let open Codec in
  map
    ~into:(fun (((opc, shard), (client_id, seq)), (key, value)) ->
      { op = (if opc = 0 then Put else Get); shard; client_id; seq; key; value })
    ~from:(fun r ->
      ( ( ((match r.op with Put -> 0 | Get -> 1), r.shard),
          (r.client_id, r.seq) ),
        ( r.key,
          if String.length r.value = value_size then r.value else zero_value ) ))
    (pair
       (pair (pair u32 u32) (pair u32 u32))
       (pair (fixed_string key_size) (fixed_string value_size)))

let write_request m (r : request) = Erpc.Typed.write ~backend request_codec m r
let read_request m = Erpc.Typed.read ~backend request_codec m

(* Response: status(4) hint(4) [value]. The hint encodes host+1 so 0 can
   mean "no hint"; the value region is present iff the message has bytes
   past the 8-byte header. *)
let resp_max_size = 8 + value_size

let resp_size ~value = match value with None -> 8 | Some _ -> 8 + value_size

let status_code = function
  | Ok_ -> 0
  | Not_leader _ -> 1
  | Retry _ -> 2
  | Not_found -> 3

let hint_code = function
  | Not_leader (Some h) | Retry (Some h) -> h + 1
  | _ -> 0

let response_codec : (status * string option) Codec.t =
  let open Codec in
  map
    ~into:(fun ((code, hintc), value) ->
      let hint = if hintc = 0 then None else Some (hintc - 1) in
      let status =
        match code with 0 -> Ok_ | 1 -> Not_leader hint | 2 -> Retry hint | _ -> Not_found
      in
      (status, value))
    ~from:(fun (status, value) -> ((status_code status, hint_code status), value))
    (pair (pair u32 u32) (tail_option (fixed_string value_size)))

let write_response m ~status ~value =
  Erpc.Typed.write_within ~backend response_codec m (status, value)

let read_response m = Erpc.Typed.read ~backend response_codec m

(* Replicated command: client_id(4) seq(4) key value, as a string so the
   Raft core and wire format stay command-agnostic. *)
let cmd_size = 8 + key_size + value_size

let cmd_codec : (int * int * string * string) Codec.t =
  let open Codec in
  map
    ~into:(fun ((client_id, seq), (key, value)) -> (client_id, seq, key, value))
    ~from:(fun (client_id, seq, key, value) -> ((client_id, seq), (key, value)))
    (pair (pair u32 u32) (pair (fixed_string key_size) (fixed_string value_size)))

let encode_cmd ~client_id ~seq ~key ~value =
  Bytes.unsafe_to_string (Codec.to_bytes cmd_codec (client_id, seq, key, value))

let zero_cmd = String.make cmd_size '\000'

let noop_client_id = 0xffff_ffff

let noop_cmd ~seq =
  encode_cmd ~client_id:noop_client_id ~seq
    ~key:(String.make key_size '\000')
    ~value:zero_value

(* The decode only reads the bytes, so the command is not copied. *)
let decode_cmd s = Codec.of_bytes cmd_codec (Bytes.unsafe_of_string s)

(* Raft frame: shard(4) ^ message bytes. *)
let raft_frame_codec : (int * string Raft.Core.msg) Codec.t =
  Codec.pair Codec.u32 Raft.Wire.msg_codec

let raft_frame_size msg = Codec.size raft_frame_codec (0, msg)

(* Largest Raft reply frame: an AppendEntries response, the bigger of the
   two replies. *)
let raft_reply_max_size =
  raft_frame_size
    (Raft.Core.Append_entries_resp { term = 0; success = true; from = 0; match_index = 0 })

let raft_frame_capacity ~max_entries =
  raft_frame_size
    (Raft.Core.Append_entries
       {
         term = 0;
         leader_id = 0;
         prev_log_index = 0;
         prev_log_term = 0;
         entries = List.init max_entries (fun _ -> { Raft.Log.term = 0; cmd = zero_cmd });
         leader_commit = 0;
       })

let write_raft_frame m ~shard msg =
  Erpc.Typed.write_within ~backend raft_frame_codec m (shard, msg)

let read_raft_frame m = Erpc.Typed.read ~backend raft_frame_codec m
