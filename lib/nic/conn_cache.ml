(* LRU via doubly-linked list over an intrusive node table. *)

type node = {
  conn : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity_entries =
  assert (capacity_entries > 0);
  {
    capacity = capacity_entries;
    table = Hashtbl.create (2 * capacity_entries);
    head = None;
    tail = None;
    size = 0;
    hits = 0;
    misses = 0;
  }

(* ~375 B of state per connection; the NIC's ~2 MB SRAM is shared with
   descriptor rings and buffers, leaving a few hundred KB for connection
   state. 168 kB / 375 B = 450 connections, matching the knee in Fig 1. *)
let create_default () = create ~capacity_entries:450

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let access t conn =
  match Hashtbl.find_opt t.table conn with
  | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      true
  | None ->
      t.misses <- t.misses + 1;
      if t.size >= t.capacity then begin
        match t.tail with
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.conn;
            t.size <- t.size - 1
        | None -> ()
      end;
      let n = { conn; prev = None; next = None } in
      Hashtbl.replace t.table conn n;
      push_front t n;
      t.size <- t.size + 1;
      false

let miss_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.misses /. float_of_int total

let resident t = t.size

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
