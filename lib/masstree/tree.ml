(* B+tree with linked leaves. Capacity chosen so nodes span a few cache
   lines, like Masstree's trie-of-B+trees nodes. *)

let max_keys = 30

type node = Leaf of leaf | Internal of internal

and leaf = {
  mutable lkeys : string array;
  mutable lvals : string array;
  mutable lcount : int;
  mutable next : leaf option;
}

and internal = {
  mutable ikeys : string array;  (* separators: child i holds keys < ikeys.(i) *)
  mutable children : node array;
  mutable icount : int;  (* number of separators; children = icount + 1 *)
}

type t = { mutable root : node; mutable count : int }

let new_leaf () =
  { lkeys = Array.make max_keys ""; lvals = Array.make max_keys ""; lcount = 0; next = None }

let new_internal () =
  { ikeys = Array.make max_keys ""; children = Array.make (max_keys + 1) (Leaf (new_leaf ())); icount = 0 }

let create () = { root = Leaf (new_leaf ()); count = 0 }

(* Index of the first key in [keys.(0..count)] that is >= [key]. *)
let lower_bound keys count key =
  let lo = ref 0 and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index to descend into: first separator strictly greater than the
   key; equal keys go right so that separators equal leaf minima. *)
let child_index inner key =
  let lo = ref 0 and hi = ref inner.icount in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare inner.ikeys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_leaf node key =
  match node with
  | Leaf l -> l
  | Internal inner -> find_leaf inner.children.(child_index inner key) key

let get t ~key =
  let l = find_leaf t.root key in
  let i = lower_bound l.lkeys l.lcount key in
  if i < l.lcount && String.equal l.lkeys.(i) key then Some l.lvals.(i) else None

(* Split a full leaf; returns (separator, right sibling). *)
let split_leaf l =
  let right = new_leaf () in
  let mid = l.lcount / 2 in
  let moved = l.lcount - mid in
  Array.blit l.lkeys mid right.lkeys 0 moved;
  Array.blit l.lvals mid right.lvals 0 moved;
  right.lcount <- moved;
  l.lcount <- mid;
  right.next <- l.next;
  l.next <- Some right;
  (right.lkeys.(0), Leaf right)

let split_internal inner =
  let right = new_internal () in
  let mid = inner.icount / 2 in
  let sep = inner.ikeys.(mid) in
  let moved = inner.icount - mid - 1 in
  Array.blit inner.ikeys (mid + 1) right.ikeys 0 moved;
  Array.blit inner.children (mid + 1) right.children 0 (moved + 1);
  right.icount <- moved;
  inner.icount <- mid;
  (sep, Internal right)

(* Insert; returns [Some (sep, right)] when the node split. *)
let rec insert_node t node key value =
  match node with
  | Leaf l ->
      let i = lower_bound l.lkeys l.lcount key in
      if i < l.lcount && String.equal l.lkeys.(i) key then begin
        l.lvals.(i) <- value;
        None
      end
      else begin
        Array.blit l.lkeys i l.lkeys (i + 1) (l.lcount - i);
        Array.blit l.lvals i l.lvals (i + 1) (l.lcount - i);
        l.lkeys.(i) <- key;
        l.lvals.(i) <- value;
        l.lcount <- l.lcount + 1;
        t.count <- t.count + 1;
        if l.lcount = max_keys then Some (split_leaf l) else None
      end
  | Internal inner -> (
      let ci = child_index inner key in
      match insert_node t inner.children.(ci) key value with
      | None -> None
      | Some (sep, right) ->
          Array.blit inner.ikeys ci inner.ikeys (ci + 1) (inner.icount - ci);
          Array.blit inner.children (ci + 1) inner.children (ci + 2) (inner.icount - ci);
          inner.ikeys.(ci) <- sep;
          inner.children.(ci + 1) <- right;
          inner.icount <- inner.icount + 1;
          if inner.icount = max_keys then Some (split_internal inner) else None)

let insert t ~key ~value =
  match insert_node t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let root = new_internal () in
      root.ikeys.(0) <- sep;
      root.children.(0) <- t.root;
      root.children.(1) <- right;
      root.icount <- 1;
      t.root <- Internal root

let scan t ~start ~n =
  let acc = ref [] in
  let taken = ref 0 in
  let rec walk leaf i =
    if !taken < n then
      if i < leaf.lcount then begin
        acc := (leaf.lkeys.(i), leaf.lvals.(i)) :: !acc;
        incr taken;
        walk leaf (i + 1)
      end
      else match leaf.next with Some right -> walk right 0 | None -> ()
  in
  let l = find_leaf t.root start in
  walk l (lower_bound l.lkeys l.lcount start);
  List.rev !acc

let size t = t.count

let depth t =
  let rec go node acc =
    match node with Leaf _ -> acc | Internal inner -> go inner.children.(0) (acc + 1)
  in
  go t.root 1

(* Each level is a dependent cache-miss chain over a large working set
   (~110 ns with DRAM latency); leaf scans then stream keys at ~12 ns per
   key (leaf walks miss the cache on every node). *)
let lookup_cost_ns ~depth = 60 + (110 * depth)
let scan_cost_ns ~depth ~n = 60 + (110 * depth) + (80 * n)
