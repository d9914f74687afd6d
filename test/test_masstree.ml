(* Tests for the Masstree-style B+tree, including a model-based property
   test against Map. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module SMap = Map.Make (String)

let test_insert_get () =
  let t = Masstree.Tree.create () in
  Masstree.Tree.insert t ~key:"b" ~value:"2";
  Masstree.Tree.insert t ~key:"a" ~value:"1";
  Masstree.Tree.insert t ~key:"c" ~value:"3";
  check_bool "a" true (Masstree.Tree.get t ~key:"a" = Some "1");
  check_bool "b" true (Masstree.Tree.get t ~key:"b" = Some "2");
  check_bool "missing" true (Masstree.Tree.get t ~key:"zz" = None);
  check_int "size" 3 (Masstree.Tree.size t)

let test_update_in_place () =
  let t = Masstree.Tree.create () in
  Masstree.Tree.insert t ~key:"k" ~value:"old";
  Masstree.Tree.insert t ~key:"k" ~value:"new";
  check_bool "updated" true (Masstree.Tree.get t ~key:"k" = Some "new");
  check_int "no duplicate" 1 (Masstree.Tree.size t)

let test_many_keys_sorted_scan () =
  let t = Masstree.Tree.create () in
  let n = 50_000 in
  (* Insert in a scrambled order. *)
  let rng = Sim.Rng.create 11L in
  let keys = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.iter
    (fun k -> Masstree.Tree.insert t ~key:(Printf.sprintf "%08d" k) ~value:(string_of_int k))
    keys;
  check_int "size" n (Masstree.Tree.size t);
  check_bool "depth grew" true (Masstree.Tree.depth t >= 3);
  (* A full scan returns every key in order. *)
  let scan = Masstree.Tree.scan t ~start:"" ~n in
  check_int "scan length" n (List.length scan);
  let sorted = List.for_all2 (fun (k, _) i -> k = Printf.sprintf "%08d" i) scan (List.init n Fun.id) in
  check_bool "scan sorted and complete" true sorted

let test_scan_from_middle () =
  let t = Masstree.Tree.create () in
  for k = 0 to 999 do
    Masstree.Tree.insert t ~key:(Printf.sprintf "%04d" k) ~value:(string_of_int k)
  done;
  let scan = Masstree.Tree.scan t ~start:"0500" ~n:128 in
  check_int "scan count" 128 (List.length scan);
  check_bool "starts at 0500" true (fst (List.hd scan) = "0500");
  check_bool "ends at 0627" true (fst (List.nth scan 127) = "0627")

let test_scan_nonexistent_start () =
  let t = Masstree.Tree.create () in
  List.iter (fun k -> Masstree.Tree.insert t ~key:k ~value:k) [ "b"; "d"; "f" ];
  let scan = Masstree.Tree.scan t ~start:"c" ~n:10 in
  Alcotest.(check (list string)) "successors of absent key" [ "d"; "f" ] (List.map fst scan)

let test_scan_past_end () =
  let t = Masstree.Tree.create () in
  Masstree.Tree.insert t ~key:"a" ~value:"1";
  check_int "empty tail" 0 (List.length (Masstree.Tree.scan t ~start:"z" ~n:10))

(* A scan pays the point lookup's descent once, then a per-key leaf walk. *)
let test_scan_cost_model () =
  check_int "empty scan = lookup" (Masstree.Tree.lookup_cost_ns ~depth:3)
    (Masstree.Tree.scan_cost_ns ~depth:3 ~n:0);
  check_bool "deeper lookups cost more" true
    (Masstree.Tree.lookup_cost_ns ~depth:4 > Masstree.Tree.lookup_cost_ns ~depth:3);
  let scan n = Masstree.Tree.scan_cost_ns ~depth:3 ~n in
  let per_key n = scan n - scan (n - 1) in
  check_bool "per-key cost is constant" true (per_key 1 > 0 && per_key 1 = per_key 128)

let model_based =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"masstree agrees with Map model" ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 500) (triple (int_range 0 2) (int_range 0 200) small_nat))
       (fun ops ->
         let t = Masstree.Tree.create () in
         let model = ref SMap.empty in
         List.for_all
           (fun (op, k, v) ->
             let key = Printf.sprintf "%04d" k in
             let value = string_of_int v in
             match op with
             | 0 ->
                 Masstree.Tree.insert t ~key ~value;
                 model := SMap.add key value !model;
                 true
             | 1 -> Masstree.Tree.get t ~key = SMap.find_opt key !model
             | _ ->
                 let got = List.map fst (Masstree.Tree.scan t ~start:key ~n:10) in
                 let expected =
                   SMap.to_seq !model |> Seq.map fst
                   |> Seq.filter (fun k' -> String.compare k' key >= 0)
                   |> Seq.take 10 |> List.of_seq
                 in
                 got = expected)
           ops
         && Masstree.Tree.size t = SMap.cardinal !model))

let suite =
  [
    Alcotest.test_case "insert/get" `Quick test_insert_get;
    Alcotest.test_case "update in place" `Quick test_update_in_place;
    Alcotest.test_case "50k keys, ordered scan" `Quick test_many_keys_sorted_scan;
    Alcotest.test_case "scan from middle" `Quick test_scan_from_middle;
    Alcotest.test_case "scan from absent key" `Quick test_scan_nonexistent_start;
    Alcotest.test_case "scan past end" `Quick test_scan_past_end;
    Alcotest.test_case "scan cost model" `Quick test_scan_cost_model;
    model_based;
  ]
