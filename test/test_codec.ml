(* Tests for the schema/codec layer: per-backend roundtrips, golden wire
   bytes (the service's frozen formats), strict prefix/corruption fuzzing,
   typed msgbuf integration, and typed RPC end-to-end (flat backend
   included). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let roundtrip ?backend c v = Codec.of_bytes ?backend c (Codec.to_bytes ?backend c v)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* {2 Primitives and combinators (compact)} *)

let test_primitives () =
  check_int "u8" 200 (roundtrip Codec.u8 200);
  check_int "u16" 60_000 (roundtrip Codec.u16 60_000);
  check_int "u32" 0xDEADBEEF (roundtrip Codec.u32 0xDEADBEEF);
  check_int "u64" 123_456_789_012_345 (roundtrip Codec.u64 123_456_789_012_345);
  check_bool "bool t" true (roundtrip Codec.bool true);
  check_bool "bool f" false (roundtrip Codec.bool false);
  check_str "string" "hello" (roundtrip Codec.string "hello");
  check_str "fixed" "16-byte-string!!" (roundtrip (Codec.fixed_string 16) "16-byte-string!!");
  check_str "bounded" "abc" (roundtrip (Codec.bounded_string 8) "abc")

let test_range_checks () =
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.u8: out of range") (fun () ->
      ignore (Codec.to_bytes Codec.u8 256));
  Alcotest.check_raises "fixed width"
    (Invalid_argument "Codec.fixed_string: expected 4 bytes, got 3") (fun () ->
      ignore (Codec.to_bytes (Codec.fixed_string 4) "abc"));
  Alcotest.check_raises "bounded overflow"
    (Invalid_argument "Codec.bounded_string: 5 bytes exceeds capacity 4") (fun () ->
      ignore (Codec.to_bytes (Codec.bounded_string 4) "abcde"))

let test_combinators () =
  let c = Codec.(pair u32 (list string)) in
  let v = (42, [ "a"; "bb"; "" ]) in
  check_bool "pair+list" true (roundtrip c v = v);
  let t = Codec.(triple bool u16 string) in
  let tv = (true, 7, "x") in
  check_bool "triple" true (roundtrip t tv = tv);
  check_bool "option none" true (roundtrip Codec.(option u32) None = None);
  check_bool "option some" true (roundtrip Codec.(option u32) (Some 9) = Some 9);
  check_bool "array" true (roundtrip Codec.(array u8) [| 1; 2; 3 |] = [| 1; 2; 3 |]);
  check_bool "tail_list" true
    (roundtrip Codec.(tail_list (pair u16 string)) [ (1, "a"); (2, "") ]
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
  check_int "list size" (4 + (2 * 4)) (Codec.size Codec.(list u32) [ 1; 2 ]);
  check_int "option none size" 1 (Codec.size Codec.(option u64) None);
  check_int "checksum adds 4" (4 + 5 + 4) (Codec.size (Codec.with_checksum Codec.string) "hello");
  (* size = compact encoded_size, and the buffer really is that long. *)
  let c = Codec.(pair u16 (list bool)) in
  let v = (9, [ true; false; true ]) in
  check_int "encoded_size" (Codec.size c v) (Codec.encoded_size ~backend:Codec.Compact c v);
  check_int "to_bytes length" (Codec.size c v) (Bytes.length (Codec.to_bytes c v))

let test_bounds () =
  check_bool "string unbounded" true (Codec.bound Codec.string = None);
  check_bool "fixed bounded" true (Codec.bound (Codec.fixed_string 8) = Some 8);
  check_bool "pair bound" true (Codec.bound Codec.(pair u32 u16) = Some 6);
  check_bool "bounded_string bound" true (Codec.bound (Codec.bounded_string 10) = Some 14);
  check_bool "list unbounded" true (Codec.bound Codec.(list u8) = None)

let test_truncation_raises () =
  let b = Codec.to_bytes Codec.string "hello world" in
  let truncated = Bytes.sub b 0 6 in
  check_bool "decode error" true
    (try
       ignore (Codec.of_bytes Codec.string truncated);
       false
     with Codec.Decode_error _ -> true)

let test_trailing_bytes_raise () =
  let b = Codec.to_bytes Codec.u16 7 in
  let padded = Bytes.cat b (Bytes.make 1 '\000') in
  check_bool "trailing garbage rejected" true
    (try
       ignore (Codec.of_bytes Codec.u16 padded);
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
     with Codec.Decode_error _ -> true);
  (* bound = 1 + max case bound only when every case is bounded; [string]
     is not, so the variant is unbounded. *)
  check_bool "variant unbounded" true (Codec.bound shape_codec = None)

(* {2 Checksummed frames} *)

let test_with_checksum () =
  let c = Codec.with_checksum Codec.(pair u32 string) in
  let v = (7, "payload") in
  check_bool "roundtrip" true (roundtrip c v = v);
  let b = Codec.to_bytes c v in
  Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0x40));
  check_bool "corruption detected" true
    (try
       ignore (Codec.of_bytes c b);
       false
     with Codec.Decode_error _ -> true)

(* {2 Flat backend} *)

let flat_schema = Codec.(pair (pair u32 u16) (pair (fixed_string 8) (bounded_string 12)))
let flat_value = ((0xCAFE, 77), ("8-bytes!", "short"))

let test_flat_roundtrip () =
  check_bool "flat capable" true (Codec.flat_capable flat_schema);
  check_bool "flat roundtrip" true (roundtrip ~backend:Codec.Flat flat_schema flat_value = flat_value);
  check_int "flat size is fixed" (Codec.flat_size flat_schema)
    (Bytes.length (Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value));
  check_int "flat size = 4+2+8+(4+12)" (4 + 2 + 8 + 4 + 12) (Codec.flat_size flat_schema);
  (* Short value lengths encode deterministically (slack zero-filled). *)
  check_bool "deterministic"  true
    (Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value
    = Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value);
  check_bool "string not flat capable" true (not (Codec.flat_capable Codec.string));
  Alcotest.check_raises "flat on unbounded"
    (Invalid_argument "Codec.encoded_size: codec has no flat layout (unbounded field?)")
    (fun () -> ignore (Codec.encoded_size ~backend:Codec.Flat Codec.string "x"))

let test_flat_wrong_length_raises () =
  let b = Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value in
  check_bool "truncated flat rejected" true
    (try
       ignore (Codec.of_bytes ~backend:Codec.Flat flat_schema (Bytes.sub b 0 (Bytes.length b - 1)));
       false
     with Codec.Decode_error _ -> true)

let test_flat_lazy_access () =
  check_int "leaf count" 4 (Codec.flat_leaves flat_schema);
  let b = Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value in
  check_int "leaf 0 int" 0xCAFE (Codec.get_leaf_int flat_schema b ~base:0 ~leaf:0);
  check_int "leaf 1 int" 77 (Codec.get_leaf_int flat_schema b ~base:0 ~leaf:1);
  check_str "leaf 2 string" "8-bytes!" (Codec.get_leaf_string flat_schema b ~base:0 ~leaf:2);
  check_str "leaf 3 string" "short" (Codec.get_leaf_string flat_schema b ~base:0 ~leaf:3);
  check_int "leaf_bytes of u32" 4 (Codec.leaf_bytes flat_schema ~leaf:0);
  Alcotest.check_raises "string leaf as int"
    (Invalid_argument "Codec.get_leaf_int: leaf is not an integer") (fun () ->
      ignore (Codec.get_leaf_int flat_schema b ~base:0 ~leaf:2))

(* {2 QCheck: roundtrips and fuzzing} *)

let qcheck_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 50)
        (triple (int_range 0 0xFFFFFFFF) (small_string ~gen:printable) bool))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (list of triples)" ~count:300 gen (fun v ->
         roundtrip Codec.(list (triple u32 string bool)) v = v))

let qcheck_nested =
  let c = Codec.(option (pair (list u16) string)) in
  let gen =
    QCheck2.Gen.(
      option (pair (list_size (int_range 0 20) (int_range 0 0xFFFF)) (small_string ~gen:printable)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (nested option)" ~count:300 gen (fun v ->
         roundtrip c v = v))

let qcheck_flat_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFF))
        (pair
           (string_size ~gen:printable (return 8))
           (string_size ~gen:printable (int_range 0 12))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"flat roundtrip" ~count:300 gen (fun v ->
         roundtrip ~backend:Codec.Flat flat_schema v = v
         && roundtrip ~backend:Codec.Compact flat_schema v = v))

(* Strict prefix property: for codecs without tail fields, no strict
   prefix of a valid encoding is itself valid — decode must raise
   [Decode_error] (and nothing else) for every one. *)
let prefix_cases =
  [
    ("string", Codec.to_bytes Codec.string "hello world");
    ("pair", Codec.to_bytes Codec.(pair u32 string) (7, "payload"));
    ("list", Codec.to_bytes Codec.(list u16) [ 1; 2; 3 ]);
    ("variant", Codec.to_bytes shape_codec (Label "edge"));
    ("checksum", Codec.to_bytes (Codec.with_checksum Codec.string) "hello");
    ("flat", Codec.to_bytes ~backend:Codec.Flat flat_schema flat_value);
  ]

let decode_of_name name =
  match name with
  | "string" -> fun b -> ignore (Codec.of_bytes Codec.string b)
  | "pair" -> fun b -> ignore (Codec.of_bytes Codec.(pair u32 string) b)
  | "list" -> fun b -> ignore (Codec.of_bytes Codec.(list u16) b)
  | "variant" -> fun b -> ignore (Codec.of_bytes shape_codec b)
  | "checksum" -> fun b -> ignore (Codec.of_bytes (Codec.with_checksum Codec.string) b)
  | "flat" -> fun b -> ignore (Codec.of_bytes ~backend:Codec.Flat flat_schema b)
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
  (* The KV request schema is all fixed-width, so the flat backend can
     address its 6 leaves without a full decode. *)
  check_bool "flat capable" true (Codec.flat_capable Service.Kv_proto.request_codec);
  check_int "leaves" 6 (Codec.flat_leaves Service.Kv_proto.request_codec);
  let r =
    { Service.Kv_proto.op = Service.Kv_proto.Put; shard = 3; client_id = 7; seq = 42; key = key16; value = ramp64 }
  in
  let b = Codec.to_bytes ~backend:Codec.Flat Service.Kv_proto.request_codec r in
  check_bool "flat = compact bytes" true (b = Codec.to_bytes Service.Kv_proto.request_codec r);
  check_int "seq leaf" 42 (Codec.get_leaf_int Service.Kv_proto.request_codec b ~base:0 ~leaf:3);
  check_str "key leaf" key16 (Codec.get_leaf_string Service.Kv_proto.request_codec b ~base:0 ~leaf:4)

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
   [leaf_count] without calling [map]'s [from]; encoding still calls it
   once. *)
let test_fixed_size_short_circuit () =
  let calls = ref 0 in
  let c =
    Codec.map
      ~into:(fun (a, b) -> [ a; b ])
      ~from:(fun l ->
        incr calls;
        match l with [ a; b ] -> (a, b) | _ -> invalid_arg "two elements")
      Codec.(pair u32 u16)
  in
  check_int "size" 6 (Codec.size c [ 1; 2 ]);
  check_int "leaves" 2 (Codec.leaf_count c [ 1; 2 ]);
  check_int "encoded_size" 6 (Codec.encoded_size ~backend:Codec.Compact c [ 1; 2 ]);
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
  [
    S ("u8", Codec.u8, int_range 0 0xFF);
    S ("u16", Codec.u16, int_range 0 0xFFFF);
    S ("u32", Codec.u32, u32v);
    S ("u64", Codec.u64, int);
    S ("bool", Codec.bool, bool);
    S ("fixed_string", Codec.fixed_string 5, string_size ~gen:printable (return 5));
    S ("string", Codec.string, str);
    S ("bounded_string", Codec.bounded_string 12, string_size ~gen:printable (int_range 0 12));
    S ("pair fixed", Codec.(pair u16 u64), pair (int_range 0 0xFFFF) int);
    S ("pair variable", Codec.(pair u32 string), pair u32v str);
    S ("triple fixed", Codec.(triple u8 bool u32), triple (int_range 0 0xFF) bool u32v);
    S ("triple variable", Codec.(triple u8 string bool), triple (int_range 0 0xFF) str bool);
    S
      ( "map fixed",
        Codec.map ~into:(fun (a, b) -> a + (b lsl 32)) ~from:(fun v -> (v land 0xFFFFFFFF, v lsr 32))
          Codec.(pair u32 u16),
        map (fun (a, b) -> a + (b lsl 32)) (pair u32v (int_range 0 0xFFFF)) );
    S ("map variable", Codec.map ~into:String.uppercase_ascii ~from:Fun.id Codec.string, map String.uppercase_ascii str);
    S ("list", Codec.(list u32), list_size (int_range 0 20) u32v);
    S ("list variable", Codec.(list string), list_size (int_range 0 10) str);
    S ("array", Codec.(array u16), array_size (int_range 0 20) (int_range 0 0xFFFF));
    S ("tail_list", Codec.(tail_list (pair u32 string)), list_size (int_range 0 10) (pair u32v str));
    S ("option fixed", Codec.(option u64), option int);
    S ("option variable", Codec.(option string), option str);
    S ("tail_option", Codec.(tail_option (fixed_string 3)), option (string_size ~gen:printable (return 3)));
    S
      ( "variant",
        shape_codec,
        oneof [ return Dot; map (fun n -> Line n) u32v; map (fun s -> Label s) str ] );
    S ("checksum fixed", Codec.(with_checksum (pair u32 u32)), pair u32v u32v);
    S ("checksum variable", Codec.(with_checksum string), str);
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
  Erpc.Typed.write c m (7, "payload");
  check_int "msgbuf resized to exact size" (4 + 4 + 7) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read c m = (7, "payload"));
  (* Re-use with a smaller value: shrinks again. *)
  Erpc.Typed.write c m (1, "");
  check_int "shrinks" 8 (Erpc.Msgbuf.size m);
  (* Over capacity: raises without touching the buffer. *)
  let small = Erpc.Msgbuf.alloc ~max_size:4 in
  check_bool "capacity raise" true
    (try
       Erpc.Typed.write c small (1, "too long");
       false
     with Invalid_argument _ -> true);
  check_int "untouched" 4 (Erpc.Msgbuf.size small);
  (* In-flight (eRPC-owned) buffers are rejected up front. *)
  let view = Erpc.Msgbuf.view (Bytes.make 16 '\000') ~off:0 ~len:16 in
  Alcotest.check_raises "in flight"
    (Invalid_argument "Typed.write: msgbuf is in flight (eRPC-owned)") (fun () ->
      Erpc.Typed.write c view (1, ""))

(* One-pass [write_within]: no sizing pass, resize to what was written,
   and an overrun stops at the buffer's capacity. *)
let test_typed_write_within () =
  let c = Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Typed.write_within c m (7, "payload");
  check_int "resized to encoded length" (4 + 4 + 7) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read c m = (7, "payload"));
  let small = Erpc.Msgbuf.alloc ~max_size:10 in
  check_bool "overrun raises" true
    (try
       Erpc.Typed.write_within c small (1, "too long");
       false
     with Invalid_argument _ -> true);
  let view = Erpc.Msgbuf.view (Bytes.make 16 '\000') ~off:0 ~len:8 in
  Erpc.Msgbuf.return_to_app view;
  Alcotest.check_raises "view" (Invalid_argument "Typed.write_within: msgbuf is a view")
    (fun () -> Erpc.Typed.write_within c view (1, ""))

let test_typed_write_checksum_compose () =
  (* Regression: [with_checksum] must see the exact encoded extent, so
     resize-to-exact has to happen before the checksum trailer is read
     back. An oversized buffer must not perturb the frame. *)
  let c = Codec.with_checksum Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:256 in
  Erpc.Typed.write c m (9, "checked");
  check_int "sized to frame" (4 + 4 + 7 + 4) (Erpc.Msgbuf.size m);
  check_bool "verifies" true (Erpc.Typed.read c m = (9, "checked"));
  (* Corrupt one body byte through the raw view: decode must fail. *)
  let b = Erpc.Msgbuf.unsafe_bytes m in
  let off = Erpc.Msgbuf.unsafe_offset m in
  Bytes.set b (off + 4) 'X';
  check_bool "corruption detected" true
    (try
       ignore (Erpc.Typed.read c m);
       false
     with Codec.Decode_error _ -> true)

let test_alloc_and_write () =
  let m = Erpc.Typed.alloc_and_write Codec.string "x" in
  check_int "exact allocation" 5 (Erpc.Msgbuf.max_size m);
  check_str "contents" "x" (Erpc.Typed.read Codec.string m)

(* {2 Typed RPC end-to-end} *)

let sum_req_codec = Codec.(pair (bounded_string 8) (list u32))
let sum_resp_codec = Codec.u64

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
    ~resp_codec:sum_resp_codec
    ("sum", [ 1; 2; 3; 4; 5 ])
    ~cont:(fun r -> answer := r);
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  !answer

let test_typed_rpc_over_erpc () =
  match run_sum_rpc () with
  | Ok sum -> check_int "typed RPC answer" 15 sum
  | Error e -> Alcotest.failf "typed RPC failed: %s" (Erpc.Err.to_string e)

(* Flat backend end-to-end, including lazy per-leaf access on the server:
   the handler touches two of the three fields and responds from them. *)
let flat_req_codec = Codec.(pair (pair u32 u32) (fixed_string 8))

let test_typed_rpc_flat_lazy () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let config = { (Erpc.Config.of_cluster cluster) with codec_backend = Codec.Flat } in
  let fabric = Erpc.Fabric.create ~config cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  let was_lazy = ref false in
  Erpc.Nexus.register_handler nx1 ~req_type:6 ~mode:Erpc.Nexus.Dispatch (fun h ->
      let v = Erpc.Typed.view_request h flat_req_codec in
      was_lazy := Erpc.Typed.is_lazy v;
      let a = Erpc.Typed.view_int v ~leaf:0 ~fallback:(fun ((a, _), _) -> a) in
      let b = Erpc.Typed.view_int v ~leaf:1 ~fallback:(fun ((_, b), _) -> b) in
      Erpc.Typed.respond h Codec.u64 (a + b));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let answer = ref 0 in
  Erpc.Typed.enqueue_request client sess ~req_type:6 ~req_codec:flat_req_codec
    ~resp_codec:Codec.u64
    ((40, 2), "abcdefgh")
    ~cont:(function Ok sum -> answer := sum | Error _ -> ());
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  check_int "flat RPC answer" 42 !answer;
  check_bool "server view was lazy" true !was_lazy

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
    Alcotest.test_case "with_checksum" `Quick test_with_checksum;
    Alcotest.test_case "flat roundtrip" `Quick test_flat_roundtrip;
    Alcotest.test_case "flat wrong length" `Quick test_flat_wrong_length_raises;
    Alcotest.test_case "flat lazy access" `Quick test_flat_lazy_access;
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
    Alcotest.test_case "typed write + checksum" `Quick test_typed_write_checksum_compose;
    Alcotest.test_case "alloc_and_write" `Quick test_alloc_and_write;
    Alcotest.test_case "typed RPC over eRPC" `Quick test_typed_rpc_over_erpc;
    Alcotest.test_case "typed RPC flat lazy" `Quick test_typed_rpc_flat_lazy;
    Alcotest.test_case "golden prefixes raise" `Quick test_golden_prefixes_raise;
    Alcotest.test_case "golden appended byte raises" `Quick test_golden_appended_byte_raises;
    Alcotest.test_case "tail_list zero progress" `Quick test_tail_list_zero_progress;
    Alcotest.test_case "fixed size short-circuit" `Quick test_fixed_size_short_circuit;
    Alcotest.test_case "typed write_within" `Quick test_typed_write_within;
  ]
  @ qcheck_size_is_encoded_length
