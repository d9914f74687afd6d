(* Calendar-queue scheduler: a timing wheel of 1 ns slots for the near
   future, an overflow min-heap for everything else, and a free-list of
   event cells so steady-state scheduling allocates nothing.

   The wheel covers the half-open window [base, base + wheel_size). Every
   cell stored in the wheel has a timestamp inside the window, so slot
   index [time land mask] is injective on timestamps and every cell in a
   slot shares the same timestamp — a slot's list is kept in [seq] order,
   which makes same-time FIFO exact. [base] is always a popped timestamp
   (the global minimum at the time), which keeps the window invariant
   without ever re-hashing live cells, and means a push at or after the
   last popped time — every engine push — never lands behind the window.

   Events beyond the window go to the overflow heap, ordered by
   (time, seq). On every pop, heap entries that have come into the window
   migrate to the wheel, merged into their slot by [seq], so FIFO ties
   hold across the boundary too. When the wheel is empty, the window
   jumps to the heap's minimum as that event pops. A push behind the
   window (earlier than the last pop; the engine never makes one) also
   waits in the heap and pops ahead of the whole wheel, so the structure
   stays a general priority queue.

   Occupancy is tracked by a three-level bitmap (32 slots per word), so
   finding the next non-empty slot is a handful of shifts and at most
   three branch-free de Bruijn lookups even when the wheel is sparse.

   Cells are stored as a struct of arrays: a cell is an int index into
   the parallel [time], [seq], [next], [id] and [arg] int arrays and the
   [ptr] array. Slot chains, the overflow heap and the free-list all hold
   cell indices, and an event is an id and an int argument, so pushing
   and popping an int event stores only ints and needs no GC write
   barrier. Only a pointer event ({!push_ptr}) stores into [ptr], and
   its slot is cleared when the pointer is taken or its cell is freed.
   The arrays double when the free-list runs dry and never shrink. *)

let wheel_bits = 14
let wheel_size = 1 lsl wheel_bits (* 16384 ns window *)
let mask = wheel_size - 1
let l0_words = wheel_size / 32 (* 512 *)
let l1_words = l0_words / 32 (* 16 *)
let initial_cells = 1024 (* most engines here never hold more pending events *)

(* End of a chain, an empty slot, an empty free-list. *)
let nil = -1

type 'a t = {
  head : int array; (* slot chains, [seq]-ordered *)
  tail : int array;
  l0 : int array; (* bit s land 31 of word s lsr 5: slot s occupied *)
  l1 : int array; (* bit w land 31 of word w lsr 5: l0.(w) <> 0 *)
  mutable l2 : int; (* bit w1: l1.(w1) <> 0 *)
  mutable base : Time.t; (* window start; advances to each popped time *)
  mutable wheel_count : int;
  mutable heap : int array; (* overflow min-heap of cells by (time, seq) *)
  mutable heap_size : int;
  (* cell storage *)
  mutable time : Time.t array;
  mutable seq : int array;
  mutable next : int array; (* slot chain or free-list link *)
  mutable id : int array;
  mutable arg : int array;
  mutable ptr : 'a array; (* [empty] except in a pointer event's cell *)
  mutable free : int;
  mutable popped : int; (* [pop_if_before]'s cell, held for [take_ptr] *)
  mutable last_arg : int;
  mutable next_seq : int;
  mutable last : Time.t;
}

let none = -1

(* Placeholder for an unused pointer slot. An immediate, so the array is
   never a flat float array or holds a stale pointer. *)
let empty () : 'a = Obj.magic 0

(* Thread cells [lo, hi) onto the free-list, lowest index first. *)
let free_range t lo hi =
  for c = hi - 1 downto lo do
    t.next.(c) <- t.free;
    t.free <- c
  done

let create () =
  let t =
    {
      head = Array.make wheel_size nil;
      tail = Array.make wheel_size nil;
      l0 = Array.make l0_words 0;
      l1 = Array.make l1_words 0;
      l2 = 0;
      base = Time.zero;
      wheel_count = 0;
      heap = Array.make initial_cells nil;
      heap_size = 0;
      time = Array.make initial_cells 0;
      seq = Array.make initial_cells 0;
      next = Array.make initial_cells nil;
      id = Array.make initial_cells 0;
      arg = Array.make initial_cells 0;
      ptr = Array.make initial_cells (empty ());
      free = nil;
      popped = nil;
      last_arg = 0;
      next_seq = 0;
      last = Time.zero;
    }
  in
  free_range t 0 initial_cells;
  t

let length t = t.wheel_count + t.heap_size
let overflow_length t = t.heap_size
let last_time t = t.last

(* Count of set bits in a word holding a 32-bit occupancy mask. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

(* Occupied wheel slots (not cells): the calendar-queue load factor.
   Snapshot-time only — walks the 512-word l0 bitmap. *)
let occupied_slots t =
  let n = ref 0 in
  for w = 0 to l0_words - 1 do
    n := !n + popcount32 t.l0.(w)
  done;
  !n

let grow_cells t =
  let n = Array.length t.time in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.next <- extend t.next nil;
  t.id <- extend t.id 0;
  t.arg <- extend t.arg 0;
  t.ptr <- extend t.ptr (empty ());
  free_range t n (2 * n)

(* Every store here is an int: a fresh cell's pointer slot is already
   [empty]. *)
let alloc_cell t time seq id arg =
  if t.free = nil then grow_cells t;
  let c = t.free in
  t.free <- t.next.(c);
  t.time.(c) <- time;
  t.seq.(c) <- seq;
  t.next.(c) <- nil;
  t.id.(c) <- id;
  t.arg.(c) <- arg;
  c

(* Clear a pointer left in the cell, so a popped pointer is never
   retained, and return the cell to the free-list. *)
let free_cell t c =
  if t.ptr.(c) != empty () then t.ptr.(c) <- empty ();
  t.next.(c) <- t.free;
  t.free <- c

(* --- occupancy bitmap --- *)

let bit_set t s =
  let w = s lsr 5 in
  let old = t.l0.(w) in
  t.l0.(w) <- old lor (1 lsl (s land 31));
  if old = 0 then begin
    let w1 = w lsr 5 in
    let old1 = t.l1.(w1) in
    t.l1.(w1) <- old1 lor (1 lsl (w land 31));
    if old1 = 0 then t.l2 <- t.l2 lor (1 lsl w1)
  end

let bit_clear t s =
  let w = s lsr 5 in
  let v = t.l0.(w) land lnot (1 lsl (s land 31)) in
  t.l0.(w) <- v;
  if v = 0 then begin
    let w1 = w lsr 5 in
    let v1 = t.l1.(w1) land lnot (1 lsl (w land 31)) in
    t.l1.(w1) <- v1;
    if v1 = 0 then t.l2 <- t.l2 land lnot (1 lsl w1)
  end

(* Bit index by the top five bits of [(1 lsl i) * 0x077CB531] mod 2^32:
   0x077CB531 is a de Bruijn sequence, so those five bits differ for every
   i in [0, 32). *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* Index of the least significant set bit of a non-zero 32-bit value,
   branch-free: isolate the bit, then look its index up. The product is
   below 2^58, so it never overflows a 63-bit int. *)
let lowest_bit x =
  let b = x land -x in
  Char.code (String.unsafe_get debruijn32 (((b * 0x077CB531) land 0xFFFFFFFF) lsr 27))

(* First occupied slot index >= s0, or -1. *)
let find_from t s0 =
  let w0 = s0 lsr 5 in
  let m = t.l0.(w0) land (-1 lsl (s0 land 31)) in
  if m <> 0 then (w0 lsl 5) lor lowest_bit m
  else begin
    let w1i = w0 lsr 5 in
    let m1 = t.l1.(w1i) land (-1 lsl ((w0 land 31) + 1)) in
    if m1 <> 0 then begin
      let w = (w1i lsl 5) lor lowest_bit m1 in
      (w lsl 5) lor lowest_bit t.l0.(w)
    end
    else begin
      let m2 = t.l2 land (-1 lsl (w1i + 1)) in
      if m2 <> 0 then begin
        let w1 = lowest_bit m2 in
        let w = (w1 lsl 5) lor lowest_bit t.l1.(w1) in
        (w lsl 5) lor lowest_bit t.l0.(w)
      end
      else -1
    end
  end

(* Slot of the wheel's earliest cell. Only valid when [wheel_count > 0]:
   scan forward from [base]'s slot, wrapping once — timestamps increase
   with slot distance from [base] because the window is exactly one lap. *)
let wheel_min_slot t =
  let s = find_from t (t.base land mask) in
  if s >= 0 then s else find_from t 0

(* --- overflow heap (cells, ordered by (time, seq)) --- *)

let cell_before t a b =
  let ta = t.time.(a) and tb = t.time.(b) in
  ta < tb || (ta = tb && t.seq.(a) < t.seq.(b))

let heap_push t c =
  if t.heap_size >= Array.length t.heap then begin
    let h = Array.make (2 * Array.length t.heap) nil in
    Array.blit t.heap 0 h 0 t.heap_size;
    t.heap <- h
  end;
  let heap = t.heap in
  (* Sift the hole up from the end, then drop [c] into it. *)
  let i = ref t.heap_size in
  t.heap_size <- t.heap_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if cell_before t c heap.(parent) then begin
      heap.(!i) <- heap.(parent);
      i := parent
    end
    else continue := false
  done;
  heap.(!i) <- c

let heap_remove_top t =
  let heap = t.heap in
  let top = heap.(0) in
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  if n > 0 then begin
    (* Sift the last cell down from the root's hole. *)
    let c = heap.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let child = if r < n && cell_before t heap.(r) heap.(l) then r else l in
        if cell_before t heap.(child) c then begin
          heap.(!i) <- heap.(child);
          i := child
        end
        else continue := false
      end
    done;
    heap.(!i) <- c
  end;
  top

(* --- wheel slot insertion --- *)

let slot_append t s c =
  let tl = t.tail.(s) in
  if tl = nil then begin
    t.head.(s) <- c;
    bit_set t s
  end
  else t.next.(tl) <- c;
  t.tail.(s) <- c;
  t.wheel_count <- t.wheel_count + 1

(* Heap-to-wheel migration must merge by [seq]: a cell that waited in the
   heap can carry a smaller seq than same-time cells pushed straight into
   the slot after the window advanced. *)
let slot_insert_sorted t c =
  let s = t.time.(c) land mask in
  let h = t.head.(s) in
  let sc = t.seq.(c) in
  if h = nil || sc > t.seq.(t.tail.(s)) then slot_append t s c
  else begin
    if sc < t.seq.(h) then begin
      t.next.(c) <- h;
      t.head.(s) <- c
    end
    else begin
      (* The tail's seq is larger, so the walk stops before the end. *)
      let p = ref h in
      while sc > t.seq.(t.next.(!p)) do
        p := t.next.(!p)
      done;
      t.next.(c) <- t.next.(!p);
      t.next.(!p) <- c
    end;
    t.wheel_count <- t.wheel_count + 1
  end

let in_window t time = time >= t.base && time - t.base < wheel_size

let transfer_in_window t =
  while t.heap_size > 0 && in_window t t.time.(t.heap.(0)) do
    slot_insert_sorted t (heap_remove_top t)
  done

(* --- public operations --- *)

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let insert t time c =
  if in_window t time then slot_append t (time land mask) c else heap_push t c

let push t time id arg = insert t time (alloc_cell t time (reserve_seq t) id arg)

let push_ptr t time id x =
  let c = alloc_cell t time (reserve_seq t) id 0 in
  t.ptr.(c) <- x;
  insert t time c

(* A reserved seq can be older than cells already in its slot, so it is
   merged by [seq] like a cell migrating in from the heap. *)
let push_seq t time seq id arg =
  let c = alloc_cell t time seq id arg in
  if in_window t time then slot_insert_sorted t c else heap_push t c

(* Detach and return the earliest cell if its time is <= horizon, else
   [nil]. The caller owns the returned cell and must free it. *)
let rec pop_cell_if_le t horizon =
  if t.heap_size > 0 && t.time.(t.heap.(0)) < t.base then begin
    (* A behind-the-window push: it beats anything in the wheel. *)
    if t.time.(t.heap.(0)) > horizon then nil else heap_remove_top t
  end
  else begin
    transfer_in_window t;
    if t.wheel_count > 0 then begin
      let s = wheel_min_slot t in
      let c = t.head.(s) in
      let time = t.time.(c) in
      if time > horizon then nil
      else begin
        let nx = t.next.(c) in
        t.head.(s) <- nx;
        if nx = nil then begin
          t.tail.(s) <- nil;
          bit_clear t s
        end;
        t.wheel_count <- t.wheel_count - 1;
        t.base <- time;
        c
      end
    end
    else if t.heap_size > 0 then begin
      (* Everything pending lies beyond the window: jump the window there. *)
      let time = t.time.(t.heap.(0)) in
      if time > horizon then nil
      else begin
        t.base <- time;
        pop_cell_if_le t horizon
      end
    end
    else nil
  end

(* The popped cell stays out of the free-list, pointer in place, until
   [take_ptr] reads it or the next pop hands it back, so no push in
   between can reuse it. *)
let settle t =
  let c = t.popped in
  if c <> nil then begin
    t.popped <- nil;
    free_cell t c
  end

let pop_if_before t horizon =
  settle t;
  let c = pop_cell_if_le t horizon in
  if c = nil then none
  else begin
    t.last <- t.time.(c);
    t.last_arg <- t.arg.(c);
    t.popped <- c;
    t.id.(c)
  end

let last_arg t = t.last_arg

let take_ptr t =
  let c = t.popped in
  if c = nil || t.ptr.(c) == empty () then
    invalid_arg "Timing_wheel.take_ptr: no popped pointer event";
  t.popped <- nil;
  let x = t.ptr.(c) in
  free_cell t c;
  x

let pop t =
  settle t;
  let c = pop_cell_if_le t max_int in
  if c = nil then None
  else begin
    let time = t.time.(c) and id = t.id.(c) in
    t.last <- time;
    t.last_arg <- t.arg.(c);
    free_cell t c;
    Some (time, id)
  end

