(* The Carousel as a slot ring: the oracle for [Erpc.Wheel]. A
   [num_slots] ring of intrusive per-slot FIFO lists of int cells, polled
   slot by slot from a cursor. It is the data structure the paper
   describes; [Erpc.Wheel] must deliver exactly its sequence, with memory
   proportional to the pending entries instead of the slot count. *)

let nil = -1

type t = {
  slot_ns : int;
  num_slots : int;
  head : int array;  (* per wheel slot: oldest cell, or [nil] *)
  tail : int array;
  mutable value : int array;
  mutable next : int array;  (* slot chain or free-list link *)
  mutable free : int;
  mutable cursor_slot : int;  (* absolute slot index up to which we have polled *)
  mutable pending : int;
}

let create ~slot_ns ~num_slots =
  assert (slot_ns > 0 && num_slots > 1);
  {
    slot_ns;
    num_slots;
    head = Array.make num_slots nil;
    tail = Array.make num_slots nil;
    value = [||];
    next = [||];
    free = nil;
    cursor_slot = 0;
    pending = 0;
  }

let horizon_ns t = t.slot_ns * (t.num_slots - 1)

let grow t =
  let n = Array.length t.value in
  let m = Int.max 16 (2 * n) in
  let value = Array.make m 0 and next = Array.make m nil in
  Array.blit t.value 0 value 0 n;
  Array.blit t.next 0 next 0 n;
  for c = m - 1 downto n do
    next.(c) <- t.free;
    t.free <- c
  done;
  t.value <- value;
  t.next <- next

let insert t ~now ~at x =
  let at = Int.max at now in
  let at = Int.min at (now + horizon_ns t) in
  let s = Int.max (at / t.slot_ns) t.cursor_slot mod t.num_slots in
  if t.free = nil then grow t;
  let c = t.free in
  t.free <- t.next.(c);
  t.value.(c) <- x;
  t.next.(c) <- nil;
  if t.tail.(s) = nil then t.head.(s) <- c else t.next.(t.tail.(s)) <- c;
  t.tail.(s) <- c;
  t.pending <- t.pending + 1

let poll t ~now f =
  let target = now / t.slot_ns in
  let delivered = ref 0 in
  while t.cursor_slot <= target && t.pending > 0 do
    let s = t.cursor_slot mod t.num_slots in
    while t.head.(s) <> nil do
      let c = t.head.(s) in
      let x = t.value.(c) in
      t.head.(s) <- t.next.(c);
      if t.head.(s) = nil then t.tail.(s) <- nil;
      t.next.(c) <- t.free;
      t.free <- c;
      t.pending <- t.pending - 1;
      incr delivered;
      f x
    done;
    t.cursor_slot <- t.cursor_slot + 1
  done;
  if t.cursor_slot <= target then t.cursor_slot <- target + 1;
  !delivered

let pending t = t.pending
