(* Tests for message buffers: bounds, ownership transitions, zero-copy
   views, data accessors, storage on first access. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_alloc_defaults () =
  let m = Erpc.Msgbuf.alloc ~max_size:128 in
  check_int "max" 128 (Erpc.Msgbuf.max_size m);
  check_int "size starts at max" 128 (Erpc.Msgbuf.size m);
  check_bool "app owned" true (Erpc.Msgbuf.owner m = Erpc.Msgbuf.Owned_by_app);
  check_bool "not a view" false (Erpc.Msgbuf.is_view m)

let test_resize_bounds () =
  let m = Erpc.Msgbuf.alloc ~max_size:100 in
  Erpc.Msgbuf.resize m 50;
  check_int "resized" 50 (Erpc.Msgbuf.size m);
  Alcotest.check_raises "too large" (Invalid_argument "Msgbuf.resize: size out of bounds")
    (fun () -> Erpc.Msgbuf.resize m 101);
  Alcotest.check_raises "negative" (Invalid_argument "Msgbuf.resize: size out of bounds")
    (fun () -> Erpc.Msgbuf.resize m (-1))

let test_num_pkts () =
  let m = Erpc.Msgbuf.alloc ~max_size:5_000 in
  check_int "5000/1024 -> 5 pkts" 5 (Erpc.Msgbuf.num_pkts m ~mtu:1024);
  Erpc.Msgbuf.resize m 1024;
  check_int "exactly one MTU" 1 (Erpc.Msgbuf.num_pkts m ~mtu:1024);
  Erpc.Msgbuf.resize m 1025;
  check_int "one byte over" 2 (Erpc.Msgbuf.num_pkts m ~mtu:1024);
  Erpc.Msgbuf.resize m 0;
  check_int "empty message still one pkt" 1 (Erpc.Msgbuf.num_pkts m ~mtu:1024)

let test_string_roundtrip () =
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Msgbuf.write_string m ~off:10 "hello";
  check_str "roundtrip" "hello" (Erpc.Msgbuf.read_string m ~off:10 ~len:5)

let test_int_accessors () =
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Msgbuf.set_u32 m ~off:0 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Erpc.Msgbuf.get_u32 m ~off:0);
  Erpc.Msgbuf.set_u64 m ~off:8 123_456_789_012_345;
  check_int "u64" 123_456_789_012_345 (Erpc.Msgbuf.get_u64 m ~off:8)

let test_bounds_checked () =
  let m = Erpc.Msgbuf.alloc ~max_size:8 in
  Alcotest.check_raises "write oob"
    (Invalid_argument "Msgbuf.write_string: out of bounds (off=5 len=5 max=8)") (fun () ->
      Erpc.Msgbuf.write_string m ~off:5 "hello");
  Alcotest.check_raises "read oob"
    (Invalid_argument "Msgbuf.read_string: out of bounds (off=0 len=9 max=8)") (fun () ->
      ignore (Erpc.Msgbuf.read_string m ~off:0 ~len:9))

let test_ownership_transitions () =
  let m = Erpc.Msgbuf.alloc ~max_size:8 in
  Erpc.Msgbuf.take_for_erpc m;
  check_bool "erpc owned" true (Erpc.Msgbuf.owner m = Erpc.Msgbuf.Owned_by_erpc);
  Alcotest.check_raises "double take"
    (Invalid_argument
       "Msgbuf: buffer already owned by eRPC (double enqueue or reuse before continuation)")
    (fun () -> Erpc.Msgbuf.take_for_erpc m);
  Erpc.Msgbuf.return_to_app m;
  check_bool "back to app" true (Erpc.Msgbuf.owner m = Erpc.Msgbuf.Owned_by_app);
  Alcotest.check_raises "double return"
    (Invalid_argument "Msgbuf: returning a buffer that eRPC does not own") (fun () ->
      Erpc.Msgbuf.return_to_app m)

let test_writes_blocked_in_flight () =
  let m = Erpc.Msgbuf.alloc ~max_size:8 in
  Erpc.Msgbuf.take_for_erpc m;
  Alcotest.check_raises "write while in flight"
    (Invalid_argument
       "Msgbuf.write_string: buffer is in flight (owned by eRPC); wait for the continuation")
    (fun () -> Erpc.Msgbuf.write_string m ~off:0 "x");
  (* Reads are allowed (the app may inspect, e.g. for logging). *)
  ignore (Erpc.Msgbuf.read_string m ~off:0 ~len:1)

let test_view_semantics () =
  let backing = Bytes.of_string "0123456789" in
  let v = Erpc.Msgbuf.view backing ~off:2 ~len:5 in
  check_bool "view flag" true (Erpc.Msgbuf.is_view v);
  check_int "view size" 5 (Erpc.Msgbuf.size v);
  check_str "view aliases backing" "23456" (Erpc.Msgbuf.read_string v ~off:0 ~len:5);
  (* Zero-copy: mutating the backing shows through. *)
  Bytes.set backing 2 'X';
  check_str "aliased" "X3456" (Erpc.Msgbuf.read_string v ~off:0 ~len:5)

let test_blit () =
  let a = Erpc.Msgbuf.alloc ~max_size:16 in
  let b = Erpc.Msgbuf.alloc ~max_size:16 in
  Erpc.Msgbuf.write_string a ~off:0 "abcdefgh";
  Erpc.Msgbuf.blit ~src:a ~src_off:2 ~dst:b ~dst_off:0 ~len:4;
  check_str "blit" "cdef" (Erpc.Msgbuf.read_string b ~off:0 ~len:4)

let test_unsafe_set_size () =
  let m = Erpc.Msgbuf.alloc ~max_size:16 in
  Erpc.Msgbuf.take_for_erpc m;
  (* library-internal resize works on eRPC-owned buffers *)
  Erpc.Msgbuf.unsafe_set_size m 7;
  check_int "internal resize" 7 (Erpc.Msgbuf.size m)

(* Storage on first access: an untouched buffer has none and reads as
   zeros. The minor heap is first filled with 0xff so that storage made
   with [Bytes.create] rather than zeroed would show through. *)
let test_untouched_reads_zeros () =
  Gc.minor ();
  for _ = 1 to 4_096 do
    ignore (Sys.opaque_identity (Bytes.make 64 '\xff'))
  done;
  Gc.minor ();
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  check_bool "no storage yet" true (Erpc.Msgbuf.payload m == Netsim.Packet.length_only);
  check_str "zeros" (String.make 64 '\000') (Erpc.Msgbuf.read_string m ~off:0 ~len:64);
  check_int "u64 zero" 0 (Erpc.Msgbuf.get_u64 m ~off:8)

let test_first_access_makes_storage () =
  let fresh () =
    let m = Erpc.Msgbuf.alloc ~max_size:16 in
    check_bool "no storage before" true (Erpc.Msgbuf.payload m == Netsim.Packet.length_only);
    m
  in
  let has_storage what m =
    check_bool (what ^ " makes storage") false
      (Erpc.Msgbuf.payload m == Netsim.Packet.length_only)
  in
  let m = fresh () in
  Erpc.Msgbuf.write_string m ~off:4 "abcd";
  has_storage "write_string" m;
  check_str "written over zeros" "\000abcd\000" (Erpc.Msgbuf.read_string m ~off:3 ~len:6);
  let m = fresh () in
  Erpc.Msgbuf.set_u32 m ~off:0 7;
  has_storage "set_u32" m;
  let m = fresh () in
  ignore (Erpc.Msgbuf.unsafe_bytes m);
  has_storage "unsafe_bytes" m;
  check_bool "payload is that storage" true
    (Erpc.Msgbuf.payload m == Erpc.Msgbuf.unsafe_bytes m)

let test_blit_without_storage () =
  let a = Erpc.Msgbuf.alloc ~max_size:(1 lsl 20) in
  let b = Erpc.Msgbuf.alloc ~max_size:(1 lsl 20) in
  Erpc.Msgbuf.blit ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len:(1 lsl 20);
  check_bool "src still has none" true (Erpc.Msgbuf.payload a == Netsim.Packet.length_only);
  check_bool "dst still has none" true (Erpc.Msgbuf.payload b == Netsim.Packet.length_only);
  (* Into a buffer with storage, the unwritten source range is zeros. *)
  let c = Erpc.Msgbuf.alloc ~max_size:8 in
  Erpc.Msgbuf.write_string c ~off:0 "abcdefgh";
  Erpc.Msgbuf.blit ~src:a ~src_off:5 ~dst:c ~dst_off:2 ~len:4;
  check_str "range zero-filled" "ab\000\000\000\000gh" (Erpc.Msgbuf.read_string c ~off:0 ~len:8);
  check_bool "src untouched by the copy" true
    (Erpc.Msgbuf.payload a == Netsim.Packet.length_only)

let test_view_without_storage () =
  let v = Erpc.Msgbuf.view Netsim.Packet.length_only ~off:3_072 ~len:100 in
  check_int "view size" 100 (Erpc.Msgbuf.size v);
  check_bool "no storage" true (Erpc.Msgbuf.payload v == Netsim.Packet.length_only);
  check_int "reads zero" 0 (Erpc.Msgbuf.get_u32 v ~off:96);
  check_int "storage starts at 0" 0 (Erpc.Msgbuf.unsafe_offset v)

let suite =
  [
    Alcotest.test_case "alloc defaults" `Quick test_alloc_defaults;
    Alcotest.test_case "resize bounds" `Quick test_resize_bounds;
    Alcotest.test_case "num_pkts" `Quick test_num_pkts;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "int accessors" `Quick test_int_accessors;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "ownership transitions" `Quick test_ownership_transitions;
    Alcotest.test_case "writes blocked in flight" `Quick test_writes_blocked_in_flight;
    Alcotest.test_case "view semantics" `Quick test_view_semantics;
    Alcotest.test_case "blit" `Quick test_blit;
    Alcotest.test_case "unsafe_set_size" `Quick test_unsafe_set_size;
    Alcotest.test_case "untouched buffer reads zeros" `Quick test_untouched_reads_zeros;
    Alcotest.test_case "first access makes storage" `Quick test_first_access_makes_storage;
    Alcotest.test_case "blit without storage" `Quick test_blit_without_storage;
    Alcotest.test_case "view without storage" `Quick test_view_without_storage;
  ]
