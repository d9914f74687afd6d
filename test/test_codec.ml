(* Tests for the schema/codec layer: per-backend roundtrips, golden wire
   bytes (the service's frozen formats), strict prefix/corruption fuzzing,
   typed msgbuf integration, and typed RPC end-to-end (flat backend
   included). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let roundtrip c v = Codec.of_bytes c (Codec.to_bytes c v)

let flat_bytes c v =
  let b = Bytes.create (Codec.encoded_size ~backend:Codec.Flat c v) in
  ignore (Codec.encode ~backend:Codec.Flat c b 0 v);
  b

let of_flat_bytes c b = Codec.decode ~backend:Codec.Flat c b ~off:0 ~len:(Bytes.length b)
let flat_roundtrip c v = of_flat_bytes c (flat_bytes c v)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* {2 Primitives and combinators (compact)} *)

let test_primitives () =
  check_int "u32" 0xDEADBEEF (roundtrip Codec.u32 0xDEADBEEF);
  check_bool "bool t" true (roundtrip Codec.bool true);
  check_bool "bool f" false (roundtrip Codec.bool false);
  check_str "string" "hello" (roundtrip Codec.string "hello");
  check_str "fixed" "16-byte-string!!" (roundtrip (Codec.fixed_string 16) "16-byte-string!!");
  check_str "bounded" "abc" (roundtrip (Codec.bounded_string 8) "abc")

let test_range_checks () =
  Alcotest.check_raises "u32 range" (Invalid_argument "Codec.u32: out of range") (fun () ->
      ignore (Codec.to_bytes Codec.u32 (1 lsl 32)));
  Alcotest.check_raises "fixed width"
    (Invalid_argument "Codec.fixed_string: expected 4 bytes, got 3") (fun () ->
      ignore (Codec.to_bytes (Codec.fixed_string 4) "abc"));
  Alcotest.check_raises "bounded overflow"
    (Invalid_argument "Codec.bounded_string: 5 bytes exceeds capacity 4") (fun () ->
      ignore (Codec.to_bytes (Codec.bounded_string 4) "abcde"))

let test_combinators () =
  let c = Codec.(pair u32 (tail_list string)) in
  let v = (42, [ "a"; "bb"; "" ]) in
  check_bool "pair+tail_list" true (roundtrip c v = v);
  let t = Codec.(triple bool u32 string) in
  let tv = (true, 7, "x") in
  check_bool "triple" true (roundtrip t tv = tv);
  check_bool "tail_list" true
    (roundtrip Codec.(tail_list (pair u32 string)) [ (1, "a"); (2, "") ]
    = [ (1, "a"); (2, "") ]);
  check_bool "tail_option none" true (roundtrip Codec.(tail_option u32) None = None);
  check_bool "tail_option some" true (roundtrip Codec.(tail_option u32) (Some 5) = Some 5)

let test_map () =
  let c =
    Codec.map
      ~into:(fun (k, v) -> `Put (k, v))
      ~from:(fun (`Put (k, v)) -> (k, v))
      Codec.(pair string string)
  in
  check_bool "mapped record" true (roundtrip c (`Put ("key", "value")) = `Put ("key", "value"))

let test_sizes_exact () =
  check_int "u32 size" 4 (Codec.size Codec.u32 0);
  check_int "string size" (4 + 5) (Codec.size Codec.string "hello");
  check_int "tail_list size" (2 * 4) (Codec.size Codec.(tail_list u32) [ 1; 2 ]);
  check_int "tail_option none size" 0 (Codec.size Codec.(tail_option u32) None);
  (* size = compact encoded_size, and the buffer really is that long. *)
  let c = Codec.(pair u32 (tail_list bool)) in
  let v = (9, [ true; false; true ]) in
  check_int "encoded_size" (Codec.size c v) (Codec.encoded_size ~backend:Codec.Compact c v);
  check_int "to_bytes length" (Codec.size c v) (Bytes.length (Codec.to_bytes c v))

let test_truncation_raises () =
  let b = Codec.to_bytes Codec.string "hello world" in
  let truncated = Bytes.sub b 0 6 in
  check_bool "decode error" true
    (try
       ignore (Codec.of_bytes Codec.string truncated);
       false
     with Codec.Decode_error _ -> true)

let test_trailing_bytes_raise () =
  let b = Codec.to_bytes Codec.u32 7 in
  let padded = Bytes.cat b (Bytes.make 1 '\000') in
  check_bool "trailing garbage rejected" true
    (try
       ignore (Codec.of_bytes Codec.u32 padded);
       false
     with Codec.Decode_error _ -> true)

(* {2 Variants} *)

type shape = Dot | Line of int | Label of string

let shape_codec =
  let open Codec in
  variant ~name:"shape"
    [
      case ~tag:0 (fixed_string 0)
        ~inj:(fun _ -> Dot)
        ~proj:(function Dot -> Some "" | _ -> None);
      case ~tag:1 u32 ~inj:(fun n -> Line n) ~proj:(function Line n -> Some n | _ -> None);
      case ~tag:2 string
        ~inj:(fun s -> Label s)
        ~proj:(function Label s -> Some s | _ -> None);
    ]

let test_variant () =
  List.iter
    (fun v -> check_bool "variant roundtrip" true (roundtrip shape_codec v = v))
    [ Dot; Line 77; Label "axis" ];
  check_bool "unknown tag" true
    (try
       ignore (Codec.of_bytes shape_codec (Bytes.make 5 '\009'));
       false
     with Codec.Decode_error _ -> true)

(* {2 Flat backend} *)

let flat_schema = Codec.(pair (pair u32 bool) (pair (fixed_string 8) (bounded_string 12)))
let flat_value = ((0xCAFE, true), ("8-bytes!", "short"))

let test_flat_roundtrip () =
  check_bool "flat roundtrip" true (flat_roundtrip flat_schema flat_value = flat_value);
  check_int "flat size = 4+1+8+(4+12)" (4 + 1 + 8 + 4 + 12)
    (Bytes.length (flat_bytes flat_schema flat_value));
  check_int "flat size is fixed" (4 + 1 + 8 + 4 + 12)
    (Bytes.length (flat_bytes flat_schema ((1, false), ("12345678", ""))));
  (* Short value lengths encode deterministically (slack zero-filled). *)
  check_bool "deterministic"  true
    (flat_bytes flat_schema flat_value = flat_bytes flat_schema flat_value);
  Alcotest.check_raises "flat on unbounded"
    (Invalid_argument "Codec.encoded_size: codec has no flat layout (unbounded field?)")
    (fun () -> ignore (Codec.encoded_size ~backend:Codec.Flat Codec.string "x"))

let test_flat_wrong_length_raises () =
  let b = flat_bytes flat_schema flat_value in
  check_bool "truncated flat rejected" true
    (try
       ignore (of_flat_bytes flat_schema (Bytes.sub b 0 (Bytes.length b - 1)));
       false
     with Codec.Decode_error _ -> true)

(* The flat layout reserves every field's capacity whatever the value; the
   compact one pays only for what the value uses. *)
let test_bounds () =
  let flat c v = Codec.encoded_size ~backend:Codec.Flat c v in
  check_int "fixed_string" 8 (flat (Codec.fixed_string 8) "12345678");
  check_int "pair" 5 (flat Codec.(pair u32 bool) (1, true));
  check_int "bounded_string reserves its capacity" 14 (flat (Codec.bounded_string 10) "");
  check_int "compact bounded_string" 4
    (Codec.encoded_size ~backend:Codec.Compact (Codec.bounded_string 10) "");
  check_bool "over-capacity length rejected" true
    (try
       ignore (Codec.of_bytes (Codec.bounded_string 10) (Codec.to_bytes Codec.string "eleven char"));
       false
     with Codec.Decode_error _ -> true);
  Alcotest.check_raises "tail_list has no flat layout"
    (Invalid_argument "Codec.encoded_size: codec has no flat layout (unbounded field?)")
    (fun () -> ignore (flat Codec.(tail_list u32) [ 1 ]))

(* The leaf count the cost model charges belongs to the value, not to the
   backend. *)
let test_leaf_count () =
  check_int "flat" 4 (Codec.encoded_leaves ~backend:Codec.Flat flat_schema flat_value);
  check_int "compact" 4 (Codec.encoded_leaves ~backend:Codec.Compact flat_schema flat_value);
  let leaves c v = Codec.encoded_leaves ~backend:Codec.Compact c v in
  check_int "tail_list counts its elements" 3 (leaves Codec.(tail_list u32) [ 1; 2; 3 ]);
  check_int "tail_option None" 0 (leaves Codec.(tail_option u32) None);
  check_int "variant tag + payload" 2 (leaves shape_codec (Label "x"));
  Alcotest.check_raises "flat on unbounded"
    (Invalid_argument "Codec.encoded_leaves: codec has no flat layout (unbounded field?)")
    (fun () -> ignore (Codec.encoded_leaves ~backend:Codec.Flat Codec.string "x"))

(* {2 QCheck: roundtrips and fuzzing} *)

let qcheck_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 50)
        (triple (int_range 0 0xFFFFFFFF) (small_string ~gen:printable) bool))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (list of triples)" ~count:300 gen (fun v ->
         roundtrip Codec.(tail_list (triple u32 string bool)) v = v))

let qcheck_nested =
  let c = Codec.(tail_option (pair string (tail_list u32))) in
  let gen =
    QCheck2.Gen.(
      option
        (pair (small_string ~gen:printable) (list_size (int_range 0 20) (int_range 0 0xFFFFFFFF))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (nested option)" ~count:300 gen (fun v ->
         roundtrip c v = v))

let qcheck_flat_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_range 0 0xFFFFFFFF) bool)
        (pair
           (string_size ~gen:printable (return 8))
           (string_size ~gen:printable (int_range 0 12))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"flat roundtrip" ~count:300 gen (fun v ->
         flat_roundtrip flat_schema v = v && roundtrip flat_schema v = v))

(* Strict prefix property: for codecs without tail fields, no strict
   prefix of a valid encoding is itself valid — decode must raise
   [Decode_error] (and nothing else) for every one. *)
let prefix_cases =
  [
    ("string", Codec.to_bytes Codec.string "hello world");
    ("pair", Codec.to_bytes Codec.(pair u32 string) (7, "payload"));
    ("triple", Codec.to_bytes Codec.(triple u32 bool string) (3, true, "abc"));
    ("variant", Codec.to_bytes shape_codec (Label "edge"));
    ("flat", flat_bytes flat_schema flat_value);
  ]

let decode_of_name name =
  match name with
  | "string" -> fun b -> ignore (Codec.of_bytes Codec.string b)
  | "pair" -> fun b -> ignore (Codec.of_bytes Codec.(pair u32 string) b)
  | "triple" -> fun b -> ignore (Codec.of_bytes Codec.(triple u32 bool string) b)
  | "variant" -> fun b -> ignore (Codec.of_bytes shape_codec b)
  | "flat" -> fun b -> ignore (of_flat_bytes flat_schema b)
  | _ -> assert false

let test_prefix_fuzz () =
  List.iter
    (fun (name, b) ->
      let decode = decode_of_name name in
      decode b (* the full encoding must decode *);
      for n = 0 to Bytes.length b - 1 do
        match decode (Bytes.sub b 0 n) with
        | () -> Alcotest.failf "%s: prefix of %d/%d bytes decoded" name n (Bytes.length b)
        | exception Codec.Decode_error _ -> ()
        | exception e ->
            Alcotest.failf "%s: prefix of %d bytes raised %s" name n (Printexc.to_string e)
      done)
    prefix_cases

(* Corruption property: flipping any single byte either still decodes (to
   possibly different data) or raises [Decode_error] — never any other
   exception. *)
let test_corruption_fuzz () =
  List.iter
    (fun (name, b) ->
      let decode = decode_of_name name in
      for i = 0 to Bytes.length b - 1 do
        for bit = 0 to 7 do
          let b' = Bytes.copy b in
          Bytes.set b' i (Char.chr (Char.code (Bytes.get b' i) lxor (1 lsl bit)));
          match decode b' with
          | () -> ()
          | exception Codec.Decode_error _ -> ()
          | exception e ->
              Alcotest.failf "%s: corrupt byte %d bit %d raised %s" name i bit
                (Printexc.to_string e)
        done
      done)
    prefix_cases

(* {2 Golden wire bytes}

   These are the exact encodings the hand-rolled marshalling produced
   before the codec refactor. They are the service's frozen wire formats:
   a change here breaks same-seed chaos-trace reproducibility. *)

let key16 = "0123456789abcdef"
let ramp64 = String.init 64 (fun i -> Char.chr (32 + i))

let test_golden_kv_request () =
  let req op value =
    { Service.Kv_proto.op; shard = 3; client_id = 7; seq = 42; key = key16; value }
  in
  check_str "PUT"
    ("0000000003000000070000002a00000030313233343536373839616263646566"
    ^ hex (Bytes.of_string ramp64))
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Put ramp64)));
  check_str "GET (value zero-padded)"
    ("0100000003000000070000002a00000030313233343536373839616263646566"
    ^ String.concat "" (List.init 64 (fun _ -> "00")))
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Get "")))

let test_golden_kv_response () =
  let enc status value = hex (Codec.to_bytes Service.Kv_proto.response_codec (status, value)) in
  check_str "Ok none" "0000000000000000" (enc Service.Kv_proto.Ok_ None);
  check_str "Ok value"
    ("0000000000000000" ^ String.concat "" (List.init 64 (fun _ -> "76")))
    (enc Service.Kv_proto.Ok_ (Some (String.make 64 'v')));
  check_str "Not_leader hint" "0100000005000000" (enc (Service.Kv_proto.Not_leader (Some 4)) None);
  check_str "Retry none" "0200000000000000" (enc (Service.Kv_proto.Retry None) None);
  check_str "Not_found" "0300000000000000" (enc Service.Kv_proto.Not_found None)

let test_golden_kv_cmd () =
  check_str "cmd"
    ("070000002a00000030313233343536373839616263646566"
    ^ String.concat "" (List.init 64 (fun _ -> "77")))
    (hex
       (Bytes.of_string
          (Service.Kv_proto.encode_cmd ~client_id:7 ~seq:42 ~key:key16 ~value:(String.make 64 'w'))));
  check_str "noop"
    ("ffffffff09000000" ^ String.concat "" (List.init 80 (fun _ -> "00")))
    (hex (Bytes.of_string (Service.Kv_proto.noop_cmd ~seq:9)));
  let client_id, seq, key, value = Service.Kv_proto.decode_cmd (Service.Kv_proto.noop_cmd ~seq:9) in
  check_bool "noop decodes" true
    (client_id = Service.Kv_proto.noop_client_id && seq = 9
    && key = String.make 16 '\000'
    && value = String.make 64 '\000')

let test_golden_raft () =
  let enc msg = hex (Raft.Wire.encode msg) in
  check_str "Request_vote" "0005000000020000001100000004000000"
    (enc
       (Raft.Core.Request_vote
          { term = 5; candidate_id = 2; last_log_index = 17; last_log_term = 4 }));
  check_str "Request_vote_resp" "01050000000101000000"
    (enc (Raft.Core.Request_vote_resp { term = 5; vote_granted = true; from = 1 }));
  check_str "Append_entries"
    ("020600000000000000030000000200000003000000060000000500000068656c6c6f06000000000000000700000064000000"
    ^ String.concat "" (List.init 100 (fun _ -> "7a")))
    (enc
       (Raft.Core.Append_entries
          {
            term = 6;
            leader_id = 0;
            prev_log_index = 3;
            prev_log_term = 2;
            leader_commit = 3;
            entries =
              [
                { Raft.Log.term = 6; cmd = "hello" };
                { Raft.Log.term = 6; cmd = "" };
                { Raft.Log.term = 7; cmd = String.make 100 'z' };
              ];
          }));
  check_str "Append_entries_resp" "030600000000020000000b000000"
    (enc (Raft.Core.Append_entries_resp { term = 6; success = false; from = 2; match_index = 11 }))

let test_golden_raft_frame () =
  let msg =
    Raft.Core.Append_entries
      {
        term = 2;
        leader_id = 1;
        prev_log_index = 0;
        prev_log_term = 0;
        leader_commit = 0;
        entries = [ { Raft.Log.term = 2; cmd = "cmd-bytes" } ];
      }
  in
  check_str "frame"
    "020000000202000000010000000000000000000000000000000200000009000000636d642d6279746573"
    (hex (Codec.to_bytes Service.Kv_proto.raft_frame_codec (2, msg)));
  check_int "frame size" (4 + Raft.Wire.encoded_size msg) (Service.Kv_proto.raft_frame_size msg)

let test_kv_request_flat_leaves () =
  (* The KV request schema is all fixed-width: its flat layout is its
     compact bytes, and both backends charge its 6 leaves. *)
  let r =
    { Service.Kv_proto.op = Service.Kv_proto.Put; shard = 3; client_id = 7; seq = 42; key = key16; value = ramp64 }
  in
  let c = Service.Kv_proto.request_codec in
  let b = flat_bytes c r in
  check_bool "flat = compact bytes" true (b = Codec.to_bytes c r);
  check_bool "flat decodes" true (of_flat_bytes c b = r);
  check_int "compact leaves" 6 (Codec.encoded_leaves ~backend:Codec.Compact c r);
  check_int "flat leaves" 6 (Codec.encoded_leaves ~backend:Codec.Flat c r)

(* {2 Error paths of the cursor reader on the frozen formats}

   Each golden message comes with the strict-prefix lengths at which it
   may legally end: a tail field (the KV response's value, the
   AppendEntries entry list) ends where the message ends, so a cut there
   decodes to a shorter, different value. Every other strict prefix must
   raise [Decode_error]. One appended byte must raise too: the
   trailing-bytes error, or a truncation error when a tail field tries to
   read the extra byte as the start of another element. *)

type golden = G : string * 'a Codec.t * 'a * int list * string -> golden

let golden_raft_msgs =
  [
    Raft.Core.Request_vote { term = 5; candidate_id = 2; last_log_index = 17; last_log_term = 4 };
    Raft.Core.Request_vote_resp { term = 5; vote_granted = true; from = 1 };
    Raft.Core.Append_entries
      {
        term = 6;
        leader_id = 0;
        prev_log_index = 3;
        prev_log_term = 2;
        leader_commit = 3;
        entries =
          [
            { Raft.Log.term = 6; cmd = "hello" };
            { Raft.Log.term = 6; cmd = "" };
            { Raft.Log.term = 7; cmd = String.make 100 'z' };
          ];
      };
    Raft.Core.Append_entries_resp { term = 6; success = false; from = 2; match_index = 11 };
  ]

let golden_messages =
  let req op value =
    { Service.Kv_proto.op; shard = 3; client_id = 7; seq = 42; key = key16; value }
  in
  [
    G ("kv PUT", Service.Kv_proto.request_codec, req Service.Kv_proto.Put ramp64, [], "trailing");
    G
      ( "kv GET",
        Service.Kv_proto.request_codec,
        req Service.Kv_proto.Get (String.make 64 '\000'),
        [],
        "trailing" );
    G ("kv resp none", Service.Kv_proto.response_codec, (Service.Kv_proto.Ok_, None), [], "truncated");
    G
      ( "kv resp value",
        Service.Kv_proto.response_codec,
        (Service.Kv_proto.Ok_, Some ramp64),
        [ 8 ],
        "trailing" );
    G
      ( "kv resp hint",
        Service.Kv_proto.response_codec,
        (Service.Kv_proto.Not_leader (Some 4), None),
        [],
        "truncated" );
    G ("kv cmd", Service.Kv_proto.cmd_codec, (7, 42, key16, String.make 64 'w'), [], "trailing");
  ]
  @ List.map
      (fun msg ->
        (* shard(4) tag(1) header(20), then (term, length, bytes) entries *)
        let boundaries, extra =
          match msg with
          | Raft.Core.Append_entries _ -> ([ 25; 38; 46 ], "truncated")
          | _ -> ([], "trailing")
        in
        G ("raft frame", Service.Kv_proto.raft_frame_codec, (2, msg), boundaries, extra))
      golden_raft_msgs

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_golden_prefixes_raise () =
  List.iter
    (fun (G (name, c, v, boundaries, _)) ->
      let b = Codec.to_bytes c v in
      check_bool (name ^ ": full message decodes") true (Codec.of_bytes c b = v);
      for n = 0 to Bytes.length b - 1 do
        match Codec.of_bytes c (Bytes.sub b 0 n) with
        | v' ->
            if not (List.mem n boundaries) then
              Alcotest.failf "%s: prefix of %d/%d bytes decoded" name n (Bytes.length b);
            check_bool (Printf.sprintf "%s: %d-byte prefix is a shorter value" name n) true
              (v' <> v)
        | exception Codec.Decode_error _ ->
            if List.mem n boundaries then
              Alcotest.failf "%s: prefix of %d bytes ends a tail field but raised" name n
        | exception e ->
            Alcotest.failf "%s: prefix of %d bytes raised %s" name n (Printexc.to_string e)
      done)
    golden_messages

let test_golden_appended_byte_raises () =
  List.iter
    (fun (G (name, c, v, _, expected)) ->
      let b = Bytes.cat (Codec.to_bytes c v) (Bytes.make 1 '\007') in
      match Codec.of_bytes c b with
      | _ -> Alcotest.failf "%s: message plus one byte decoded" name
      | exception Codec.Decode_error msg ->
          if not (contains msg expected) then
            Alcotest.failf "%s: expected a %s error, got %S" name expected msg)
    golden_messages;
  (* Two appended bytes on a fixed layout: the count is part of the error. *)
  let b = Bytes.cat (Codec.to_bytes Service.Kv_proto.cmd_codec (7, 42, key16, ramp64)) (Bytes.make 2 'x') in
  Alcotest.check_raises "trailing count" (Codec.Decode_error "2 trailing bytes after message")
    (fun () -> ignore (Codec.of_bytes Service.Kv_proto.cmd_codec b))

let test_tail_list_zero_progress () =
  Alcotest.check_raises "zero-width element"
    (Codec.Decode_error "tail_list: element consumed no bytes") (fun () ->
      ignore (Codec.of_bytes Codec.(tail_list (fixed_string 0)) (Bytes.make 1 'a')))

(* A codec of exact fixed size and leaf count answers [size] and
   [encoded_leaves] without calling [map]'s [from]; encoding still calls it
   once. *)
let test_fixed_size_short_circuit () =
  let calls = ref 0 in
  let c =
    Codec.map
      ~into:(fun (a, b) -> [ a; b ])
      ~from:(fun l ->
        incr calls;
        match l with [ a; b ] -> (a, b) | _ -> invalid_arg "two elements")
      Codec.(pair u32 u32)
  in
  check_int "size" 8 (Codec.size c [ 1; 2 ]);
  check_int "leaves" 2 (Codec.encoded_leaves ~backend:Codec.Compact c [ 1; 2 ]);
  check_int "encoded_size" 8 (Codec.encoded_size ~backend:Codec.Compact c [ 1; 2 ]);
  check_int "from not called for sizing" 0 !calls;
  check_bool "roundtrip" true (roundtrip c [ 1; 2 ] = [ 1; 2 ]);
  check_int "from called once to encode" 1 !calls;
  (* A value-dependent size still goes through [from]. *)
  let v = Codec.map ~into:Fun.id ~from:(fun s -> incr calls; s) Codec.string in
  check_int "variable size" 7 (Codec.size v "abc");
  check_int "from called for variable size" 2 !calls

(* [size] equals the compact encoding's length for every combinator,
   fixed short-circuit included, and the cursor reader consumes exactly
   that many bytes back. *)
type sized = S : string * 'a Codec.t * 'a QCheck2.Gen.t -> sized

let sized_cases =
  let open QCheck2.Gen in
  let u32v = int_range 0 0xFFFFFFFF in
  let str = small_string ~gen:printable in
  let raft_msg =
    let entry = map (fun (term, cmd) -> { Raft.Log.term; cmd }) (pair u32v str) in
    oneof
      [
        map4
          (fun term candidate_id last_log_index last_log_term ->
            Raft.Core.Request_vote { term; candidate_id; last_log_index; last_log_term })
          u32v u32v u32v u32v;
        map3
          (fun term vote_granted from -> Raft.Core.Request_vote_resp { term; vote_granted; from })
          u32v bool u32v;
        map3
          (fun (term, leader_id) (prev_log_index, prev_log_term) (leader_commit, entries) ->
            Raft.Core.Append_entries
              { term; leader_id; prev_log_index; prev_log_term; leader_commit; entries })
          (pair u32v u32v) (pair u32v u32v)
          (pair u32v (list_size (int_range 0 5) entry));
        map4
          (fun term success from match_index ->
            Raft.Core.Append_entries_resp { term; success; from; match_index })
          u32v bool u32v u32v;
      ]
  in
  [
    S ("u32", Codec.u32, u32v);
    S ("bool", Codec.bool, bool);
    S ("fixed_string", Codec.fixed_string 5, string_size ~gen:printable (return 5));
    S ("string", Codec.string, str);
    S ("bounded_string", Codec.bounded_string 12, string_size ~gen:printable (int_range 0 12));
    S ("pair fixed", Codec.(pair bool u32), pair bool u32v);
    S ("pair variable", Codec.(pair u32 string), pair u32v str);
    S ("triple fixed", Codec.(triple u32 bool u32), triple u32v bool u32v);
    S ("triple variable", Codec.(triple u32 string bool), triple u32v str bool);
    S
      ( "map fixed",
        Codec.map ~into:(fun (a, b) -> (a lsl 1) lor Bool.to_int b) ~from:(fun v -> (v lsr 1, v land 1 = 1))
          Codec.(pair u32 bool),
        map (fun (a, b) -> (a lsl 1) lor Bool.to_int b) (pair u32v bool) );
    S ("map variable", Codec.map ~into:String.uppercase_ascii ~from:Fun.id Codec.string, map String.uppercase_ascii str);
    S ("tail_list fixed", Codec.(tail_list u32), list_size (int_range 0 20) u32v);
    S ("tail_list", Codec.(tail_list (pair u32 string)), list_size (int_range 0 10) (pair u32v str));
    S ("tail_option", Codec.(tail_option (fixed_string 3)), option (string_size ~gen:printable (return 3)));
    S
      ( "variant",
        shape_codec,
        oneof [ return Dot; map (fun n -> Line n) u32v; map (fun s -> Label s) str ] );
    S
      ( "kv request",
        Service.Kv_proto.request_codec,
        map
          (fun (seq, value) ->
            { Service.Kv_proto.op = Service.Kv_proto.Put; shard = 1; client_id = 3; seq; key = key16; value })
          (pair u32v (string_size ~gen:printable (return 64))) );
    S
      ( "kv response",
        Service.Kv_proto.response_codec,
        pair
          (oneofl
             [ Service.Kv_proto.Ok_; Service.Kv_proto.Not_found; Service.Kv_proto.Retry None;
               Service.Kv_proto.Not_leader (Some 2) ])
          (option (string_size ~gen:printable (return 64))) );
    S ("tail_list variable", Codec.(tail_list string), list_size (int_range 0 10) str);
    S ("tail_option variable", Codec.(tail_option string), option str);
    S ("nested pair", Codec.(pair (pair u32 string) (pair bool string)), pair (pair u32v str) (pair bool str));
    S
      ( "variant in pair",
        Codec.pair shape_codec Codec.string,
        pair (oneof [ return Dot; map (fun n -> Line n) u32v; map (fun s -> Label s) str ]) str );
    S
      ( "map over tail_list",
        Codec.map ~into:Array.of_list ~from:Array.to_list Codec.(tail_list u32),
        array_size (int_range 0 20) u32v );
    S
      ( "bounded triple",
        Codec.(triple (bounded_string 8) u32 (fixed_string 2)),
        triple (string_size ~gen:printable (int_range 0 8)) u32v (string_size ~gen:printable (return 2)) );
    S
      ( "kv cmd",
        Service.Kv_proto.cmd_codec,
        map4
          (fun client_id seq key value -> (client_id, seq, key, value))
          u32v u32v
          (string_size ~gen:printable (return 16))
          (string_size ~gen:printable (return 64)) );
    S ("raft msg", Raft.Wire.msg_codec, raft_msg);
    S ("raft frame", Service.Kv_proto.raft_frame_codec, pair u32v raft_msg);
  ]

let qcheck_size_is_encoded_length =
  List.map
    (fun (S (name, c, gen)) ->
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~name:("size = encoded length: " ^ name) ~count:200 gen (fun v ->
             let b = Bytes.create 4096 in
             let fin = Codec.encode ~backend:Codec.Compact c b 0 v in
             fin = Codec.size c v && Codec.decode ~backend:Codec.Compact c b ~off:0 ~len:fin = v)))
    sized_cases

(* {2 Typed msgbuf integration} *)

let test_typed_write_semantics () =
  let c = Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Typed.write ~backend:Codec.Compact c m (7, "payload");
  check_int "msgbuf resized to exact size" (4 + 4 + 7) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read ~backend:Codec.Compact c m = (7, "payload"));
  (* Re-use with a smaller value: shrinks again. *)
  Erpc.Typed.write ~backend:Codec.Compact c m (1, "");
  check_int "shrinks" 8 (Erpc.Msgbuf.size m);
  (* Over capacity: raises without touching the buffer. *)
  let small = Erpc.Msgbuf.alloc ~max_size:4 in
  check_bool "capacity raise" true
    (try
       Erpc.Typed.write ~backend:Codec.Compact c small (1, "too long");
       false
     with Invalid_argument _ -> true);
  check_int "untouched" 4 (Erpc.Msgbuf.size small);
  (* In-flight (eRPC-owned) buffers are rejected up front. *)
  let view = Erpc.Msgbuf.view (Bytes.make 16 '\000') ~off:0 ~len:16 in
  Alcotest.check_raises "in flight"
    (Invalid_argument "Typed.write: msgbuf is in flight (eRPC-owned)") (fun () ->
      Erpc.Typed.write ~backend:Codec.Compact c view (1, ""))

(* One-pass [write_within]: no sizing pass, resize to what was written,
   and an overrun stops at the buffer's capacity. *)
let test_typed_write_within () =
  let c = Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Typed.write_within ~backend:Codec.Compact c m (7, "payload");
  check_int "resized to encoded length" (4 + 4 + 7) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read ~backend:Codec.Compact c m = (7, "payload"));
  let small = Erpc.Msgbuf.alloc ~max_size:10 in
  check_bool "overrun raises" true
    (try
       Erpc.Typed.write_within ~backend:Codec.Compact c small (1, "too long");
       false
     with Invalid_argument _ -> true);
  let view = Erpc.Msgbuf.view (Bytes.make 16 '\000') ~off:0 ~len:8 in
  Erpc.Msgbuf.return_to_app view;
  Alcotest.check_raises "view" (Invalid_argument "Typed.write_within: msgbuf is a view")
    (fun () -> Erpc.Typed.write_within ~backend:Codec.Compact c view (1, ""))

(* Under [Flat] a write sizes the buffer to the fixed layout, whatever the
   value and however large the buffer. *)
let test_typed_write_flat () =
  let m = Erpc.Msgbuf.alloc ~max_size:256 in
  Erpc.Typed.write ~backend:Codec.Flat flat_schema m flat_value;
  check_int "sized to the flat layout" (4 + 1 + 8 + 4 + 12) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read ~backend:Codec.Flat flat_schema m = flat_value);
  let small = Erpc.Msgbuf.alloc ~max_size:16 in
  check_bool "capacity raise" true
    (try
       Erpc.Typed.write ~backend:Codec.Flat flat_schema small flat_value;
       false
     with Invalid_argument _ -> true);
  check_int "untouched" 16 (Erpc.Msgbuf.size small)

(* [read] decodes exactly the msgbuf's current size: a cut message is a
   decode error under either backend. *)
let test_typed_read_malformed () =
  let c = Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Typed.write ~backend:Codec.Compact c m (7, "payload");
  Erpc.Msgbuf.resize m (Erpc.Msgbuf.size m - 1);
  check_bool "truncated compact" true
    (try
       ignore (Erpc.Typed.read ~backend:Codec.Compact c m);
       false
     with Codec.Decode_error _ -> true);
  Erpc.Typed.write ~backend:Codec.Flat flat_schema m flat_value;
  Erpc.Msgbuf.resize m (Erpc.Msgbuf.size m - 1);
  check_bool "truncated flat" true
    (try
       ignore (Erpc.Typed.read ~backend:Codec.Flat flat_schema m);
       false
     with Codec.Decode_error _ -> true)

(* {2 Typed RPC end-to-end} *)

let sum_req_codec = Codec.(pair (bounded_string 8) (tail_list u32))
let sum_resp_codec = Codec.u32

let run_sum_rpc () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:5 ~mode:Erpc.Nexus.Dispatch (fun h ->
      let tag, numbers = Erpc.Typed.read_request h sum_req_codec in
      let sum = if tag = "sum" then List.fold_left ( + ) 0 numbers else 0 in
      Erpc.Typed.respond h sum_resp_codec sum);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let answer = ref (Error (Erpc.Err.Session_error "never ran")) in
  Erpc.Typed.enqueue_request client sess ~req_type:5 ~req_codec:sum_req_codec
    ~resp_codec:sum_resp_codec ~req_buf:(Erpc.Msgbuf.alloc ~max_size:64)
    ~resp_buf:(Erpc.Msgbuf.alloc ~max_size:4)
    ("sum", [ 1; 2; 3; 4; 5 ])
    ~cont:(fun r -> answer := r);
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  !answer

let test_typed_rpc_over_erpc () =
  match run_sum_rpc () with
  | Ok sum -> check_int "typed RPC answer" 15 sum
  | Error e -> Alcotest.failf "typed RPC failed: %s" (Erpc.Err.to_string e)

(* Flat backend end-to-end: the server decodes the request in the flat
   layout and responds with the sum of two of its fields. *)
let flat_req_codec = Codec.(pair (pair u32 u32) (fixed_string 8))

let test_typed_rpc_flat () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let config = { (Erpc.Config.of_cluster cluster) with codec_backend = Codec.Flat } in
  let fabric = Erpc.Fabric.create ~config cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:6 ~mode:Erpc.Nexus.Dispatch (fun h ->
      let (a, b), _ = Erpc.Typed.read_request h flat_req_codec in
      Erpc.Typed.respond h Codec.u32 (a + b));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let answer = ref 0 in
  Erpc.Typed.enqueue_request client sess ~req_type:6 ~req_codec:flat_req_codec
    ~resp_codec:Codec.u32 ~req_buf:(Erpc.Msgbuf.alloc ~max_size:16)
    ~resp_buf:(Erpc.Msgbuf.alloc ~max_size:4)
    ((40, 2), "abcdefgh")
    ~cont:(function Ok sum -> answer := sum | Error _ -> ());
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  check_int "flat RPC answer" 42 !answer

(* A response that does not decode as [resp_codec] completes the request
   with a session error rather than raising in the client. *)
let test_typed_rpc_undecodable_response () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:7 ~mode:Erpc.Nexus.Dispatch (fun h ->
      ignore (Erpc.Typed.read_request h Codec.u32);
      Erpc.Typed.respond h Codec.string "not a u32");
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let answer = ref None in
  Erpc.Typed.enqueue_request client sess ~req_type:7 ~req_codec:Codec.u32 ~resp_codec:Codec.u32
    ~req_buf:(Erpc.Msgbuf.alloc ~max_size:4) ~resp_buf:(Erpc.Msgbuf.alloc ~max_size:64) 1
    ~cont:(fun r -> answer := Some r);
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  match !answer with
  | Some (Error (Erpc.Err.Session_error e)) ->
      check_bool "names the decode failure" true (contains e "response decode")
  | Some (Ok v) -> Alcotest.failf "decoded %d from a string response" v
  | Some (Error e) -> Alcotest.failf "unexpected error: %s" (Erpc.Err.to_string e)
  | None -> Alcotest.fail "request never completed"

let suite =
  [
    Alcotest.test_case "primitives" `Quick test_primitives;
    Alcotest.test_case "range checks" `Quick test_range_checks;
    Alcotest.test_case "combinators" `Quick test_combinators;
    Alcotest.test_case "map" `Quick test_map;
    Alcotest.test_case "sizes exact" `Quick test_sizes_exact;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "truncation raises" `Quick test_truncation_raises;
    Alcotest.test_case "trailing bytes raise" `Quick test_trailing_bytes_raise;
    Alcotest.test_case "variant" `Quick test_variant;
    Alcotest.test_case "flat roundtrip" `Quick test_flat_roundtrip;
    Alcotest.test_case "flat wrong length" `Quick test_flat_wrong_length_raises;
    Alcotest.test_case "leaf count" `Quick test_leaf_count;
    qcheck_roundtrip;
    qcheck_nested;
    qcheck_flat_roundtrip;
    Alcotest.test_case "prefix fuzz" `Quick test_prefix_fuzz;
    Alcotest.test_case "corruption fuzz" `Quick test_corruption_fuzz;
    Alcotest.test_case "golden kv request" `Quick test_golden_kv_request;
    Alcotest.test_case "golden kv response" `Quick test_golden_kv_response;
    Alcotest.test_case "golden kv cmd" `Quick test_golden_kv_cmd;
    Alcotest.test_case "golden raft" `Quick test_golden_raft;
    Alcotest.test_case "golden raft frame" `Quick test_golden_raft_frame;
    Alcotest.test_case "kv request flat leaves" `Quick test_kv_request_flat_leaves;
    Alcotest.test_case "typed write semantics" `Quick test_typed_write_semantics;
    Alcotest.test_case "typed RPC over eRPC" `Quick test_typed_rpc_over_erpc;
    Alcotest.test_case "typed RPC flat" `Quick test_typed_rpc_flat;
    Alcotest.test_case "golden prefixes raise" `Quick test_golden_prefixes_raise;
    Alcotest.test_case "golden appended byte raises" `Quick test_golden_appended_byte_raises;
    Alcotest.test_case "tail_list zero progress" `Quick test_tail_list_zero_progress;
    Alcotest.test_case "fixed size short-circuit" `Quick test_fixed_size_short_circuit;
    Alcotest.test_case "typed write_within" `Quick test_typed_write_within;
    Alcotest.test_case "typed write flat" `Quick test_typed_write_flat;
    Alcotest.test_case "typed read malformed" `Quick test_typed_read_malformed;
    Alcotest.test_case "typed RPC undecodable response" `Quick test_typed_rpc_undecodable_response;
  ]
  @ qcheck_size_is_encoded_length
