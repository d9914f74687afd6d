(* Binary min-heap of timestamped events: the oracle for the engine's
   [Sim.Timing_wheel]. Ties on the timestamp pop in [seq] order, so for
   the same pushes it pops exactly the sequence the wheel must pop. It is
   the simplest correct scheduler, with no window, no migration and no
   slot merging to get wrong. Each event carries an id, an int argument
   and, for a pointer event, a pointer, like the wheel's. *)

type 'a entry = { time : int; seq : int; id : int; arg : int; ptr : 'a option }

type 'a t = {
  mutable heap : 'a entry array; (* entries beyond [size] are [nil] *)
  mutable size : int;
  mutable next_seq : int;
  mutable last : int;
  mutable last_arg : int;
  mutable popped : 'a option; (* [pop_if_before]'s pointer, for [take_ptr] *)
}

(* Inert entry padding the backing array; never read. *)
let nil = { time = min_int; seq = min_int; id = -1; arg = 0; ptr = None }

let initial_capacity = 64

let create () =
  {
    heap = Array.make initial_capacity nil;
    size = 0;
    next_seq = 0;
    last = 0;
    last_arg = 0;
    popped = None;
  }

let length t = t.size
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

let insert t e =
  if t.size >= Array.length t.heap then grow t;
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

let push_seq t time seq id arg = insert t { time; seq; id; arg; ptr = None }
let push t time id arg = push_seq t time (reserve_seq t) id arg
let push_ptr t time id x = insert t { time; seq = reserve_seq t; id; arg = 0; ptr = Some x }

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
  t.last_arg <- top.arg;
  t.popped <- top.ptr;
  top

let pop t =
  if t.size = 0 then None
  else
    let e = pop_entry t in
    Some (e.time, e.id)

let pop_if_before t horizon =
  if t.size = 0 || t.heap.(0).time > horizon then -1 else (pop_entry t).id

let last_arg t = t.last_arg

let take_ptr t =
  match t.popped with
  | Some x ->
      t.popped <- None;
      x
  | None -> invalid_arg "Binheap.take_ptr: no popped pointer event"

