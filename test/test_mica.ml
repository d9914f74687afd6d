(* Tests for the MICA-style hash-table store, including a model-based
   property test against Hashtbl. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_put_get () =
  let s = Mica.Store.create () in
  Mica.Store.put s ~key:"a" ~value:"1";
  Mica.Store.put s ~key:"b" ~value:"2";
  check_bool "a" true (Mica.Store.get s ~key:"a" = Some "1");
  check_bool "b" true (Mica.Store.get s ~key:"b" = Some "2");
  check_bool "missing" true (Mica.Store.get s ~key:"c" = None);
  check_int "size" 2 (Mica.Store.size s)

let test_overwrite () =
  let s = Mica.Store.create () in
  Mica.Store.put s ~key:"k" ~value:"old";
  Mica.Store.put s ~key:"k" ~value:"new";
  check_bool "overwritten" true (Mica.Store.get s ~key:"k" = Some "new");
  check_int "size unchanged" 1 (Mica.Store.size s)

let test_growth_preserves_entries () =
  let s = Mica.Store.create ~initial_buckets:4 () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Mica.Store.put s ~key:(string_of_int i) ~value:(string_of_int (i * 3))
  done;
  check_int "all inserted" n (Mica.Store.size s);
  check_bool "buckets grew" true (Mica.Store.buckets s > 4);
  let ok = ref true in
  for i = 0 to n - 1 do
    if Mica.Store.get s ~key:(string_of_int i) <> Some (string_of_int (i * 3)) then ok := false
  done;
  check_bool "all retrievable after growth" true !ok

let test_chain_collisions () =
  (* With 4 buckets and no growth until count > buckets, short keys chain;
     all remain reachable. *)
  let s = Mica.Store.create ~initial_buckets:4 () in
  List.iter (fun k -> Mica.Store.put s ~key:k ~value:(k ^ k)) [ "x"; "y"; "z"; "w" ];
  List.iter
    (fun k -> check_bool k true (Mica.Store.get s ~key:k = Some (k ^ k)))
    [ "x"; "y"; "z"; "w" ]

(* Keys that share all but their last byte, NULs included, stay distinct. *)
let test_shared_prefix_keys () =
  let s = Mica.Store.create ~initial_buckets:4 () in
  let key i = String.make 63 '\000' ^ String.make 1 (Char.chr i) in
  for i = 0 to 255 do
    Mica.Store.put s ~key:(key i) ~value:(string_of_int i)
  done;
  check_int "all distinct" 256 (Mica.Store.size s);
  for i = 0 to 255 do
    check_bool (string_of_int i) true (Mica.Store.get s ~key:(key i) = Some (string_of_int i))
  done

let test_empty_key_and_value () =
  let s = Mica.Store.create () in
  Mica.Store.put s ~key:"" ~value:"";
  check_bool "empty key" true (Mica.Store.get s ~key:"" = Some "")

let model_based =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mica agrees with Hashtbl model" ~count:100
       QCheck2.Gen.(
         list_size (int_range 1 400)
           (triple (int_range 0 1) (int_range 0 50) (small_string ~gen:printable)))
       (fun ops ->
         let s = Mica.Store.create ~initial_buckets:4 () in
         let model = Hashtbl.create 16 in
         List.for_all
           (fun (op, k, v) ->
             let key = "k" ^ string_of_int k in
             match op with
             | 0 ->
                 Mica.Store.put s ~key ~value:v;
                 Hashtbl.replace model key v;
                 true
             | _ -> Mica.Store.get s ~key = Hashtbl.find_opt model key)
           ops
         && Mica.Store.size s = Hashtbl.length model))

let suite =
  [
    Alcotest.test_case "put/get" `Quick test_put_get;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "growth" `Quick test_growth_preserves_entries;
    Alcotest.test_case "collisions" `Quick test_chain_collisions;
    Alcotest.test_case "empty key/value" `Quick test_empty_key_and_value;
    Alcotest.test_case "shared-prefix keys" `Quick test_shared_prefix_keys;
    model_based;
  ]
