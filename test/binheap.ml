(* Binary min-heap of timestamped events: the oracle for the engine's
   [Sim.Timing_wheel]. Ties on the timestamp pop in [seq] order, so for
   the same pushes it pops exactly the sequence the wheel must pop. It is
   the simplest correct scheduler, with no window, no migration and no
   slot merging to get wrong. Each event carries a payload and one
   argument, like the wheel's. *)

type ('a, 'b) entry = { time : int; seq : int; payload : 'a; arg : 'b }

type ('a, 'b) t = {
  mutable heap : ('a, 'b) entry array; (* entries beyond [size] are [nil] *)
  mutable size : int;
  mutable next_seq : int;
  mutable last : int;
  mutable popped : ('a, 'b) entry option; (* [pop_if_before]'s, for [take_arg] *)
}

(* Inert entry padding the backing array; its payload and argument are
   never read. *)
let nil : ('a, 'b) entry =
  { time = min_int; seq = min_int; payload = Obj.magic 0; arg = Obj.magic 0 }

let initial_capacity = 64

let create () =
  { heap = Array.make initial_capacity nil; size = 0; next_seq = 0; last = 0; popped = None }

let is_empty t = t.size = 0
let last_time t = t.last

let entry_before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let h = Array.make (2 * Array.length t.heap) nil in
  Array.blit t.heap 0 h 0 t.size;
  t.heap <- h

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_seq t time seq payload arg =
  if t.size >= Array.length t.heap then grow t;
  let e = { time; seq; payload; arg } in
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- e;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let push_arg t time payload arg = push_seq t time (reserve_seq t) payload arg
let push t time payload = push_arg t time payload ()

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && entry_before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && entry_before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let remove_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- nil;
    sift_down t
  end
  else t.heap.(0) <- nil

let pop_entry t =
  let top = t.heap.(0) in
  remove_top t;
  t.last <- top.time;
  top

let pop t =
  if t.size = 0 then None
  else
    let e = pop_entry t in
    Some (e.time, e.payload)

let pop_if_before t horizon ~default =
  if t.size = 0 || t.heap.(0).time > horizon then default
  else begin
    let e = pop_entry t in
    t.popped <- Some e;
    e.payload
  end

let take_arg t =
  match t.popped with
  | Some e ->
      t.popped <- None;
      e.arg
  | None -> invalid_arg "Binheap.take_arg: no popped event"

