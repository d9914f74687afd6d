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
   finding the next non-empty slot is a handful of shifts even when the
   wheel is sparse. *)

type 'a cell = {
  mutable time : Time.t;
  mutable seq : int;
  mutable payload : 'a;
  mutable next : 'a cell; (* slot chain, heap padding, or free-list link *)
}

let wheel_bits = 14
let wheel_size = 1 lsl wheel_bits (* 16384 ns window *)
let mask = wheel_size - 1
let l0_words = wheel_size / 32 (* 512 *)
let l1_words = l0_words / 32 (* 16 *)

type 'a t = {
  nil : 'a cell; (* per-queue sentinel: end-of-chain, empty slot, heap pad *)
  head : 'a cell array; (* slot chains, [seq]-ordered *)
  tail : 'a cell array;
  l0 : int array; (* bit s land 31 of word s lsr 5: slot s occupied *)
  l1 : int array; (* bit w land 31 of word w lsr 5: l0.(w) <> 0 *)
  mutable l2 : int; (* bit w1: l1.(w1) <> 0 *)
  mutable base : Time.t; (* window start; advances to each popped time *)
  mutable wheel_count : int;
  mutable heap : 'a cell array; (* overflow min-heap by (time, seq) *)
  mutable heap_size : int;
  mutable free : 'a cell; (* free-list through [next] *)
  mutable next_seq : int;
  mutable last : Time.t;
}

let create () =
  let rec nil = { time = min_int; seq = min_int; payload = Obj.magic 0; next = nil } in
  {
    nil;
    head = Array.make wheel_size nil;
    tail = Array.make wheel_size nil;
    l0 = Array.make l0_words 0;
    l1 = Array.make l1_words 0;
    l2 = 0;
    base = Time.zero;
    wheel_count = 0;
    heap = Array.make 64 nil;
    heap_size = 0;
    free = nil;
    next_seq = 0;
    last = Time.zero;
  }

let is_empty t = t.wheel_count = 0 && t.heap_size = 0
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

let alloc_cell t time seq payload =
  let c = t.free in
  if c != t.nil then begin
    t.free <- c.next;
    c.time <- time;
    c.seq <- seq;
    c.payload <- payload;
    c.next <- t.nil;
    c
  end
  else { time; seq; payload; next = t.nil }

let free_cell t c =
  c.payload <- Obj.magic 0;
  c.next <- t.free;
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

(* Index of the least significant set bit of a non-zero 32-bit value. *)
let lowest_bit x =
  let b = x land -x in
  let i = ref 0 in
  if b land 0xFFFF0000 <> 0 then i := 16;
  if b land 0xFF00FF00 <> 0 then i := !i + 8;
  if b land 0xF0F0F0F0 <> 0 then i := !i + 4;
  if b land 0xCCCCCCCC <> 0 then i := !i + 2;
  if b land 0xAAAAAAAA <> 0 then i := !i + 1;
  !i

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

let cell_before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow_heap t =
  let h = Array.make (2 * Array.length t.heap) t.nil in
  Array.blit t.heap 0 h 0 t.heap_size;
  t.heap <- h

let heap_push t c =
  if t.heap_size >= Array.length t.heap then grow_heap t;
  let i = ref t.heap_size in
  t.heap_size <- t.heap_size + 1;
  t.heap.(!i) <- c;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if cell_before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_size && cell_before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.heap_size && cell_before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let heap_remove_top t =
  let top = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_size);
    t.heap.(t.heap_size) <- t.nil;
    heap_sift_down t
  end
  else t.heap.(0) <- t.nil;
  top

(* --- wheel slot insertion --- *)

let slot_append t s c =
  if t.head.(s) == t.nil then begin
    t.head.(s) <- c;
    t.tail.(s) <- c;
    bit_set t s
  end
  else begin
    t.tail.(s).next <- c;
    t.tail.(s) <- c
  end;
  t.wheel_count <- t.wheel_count + 1

(* Heap-to-wheel migration must merge by [seq]: a cell that waited in the
   heap can carry a smaller seq than same-time cells pushed straight into
   the slot after the window advanced. *)
let slot_insert_sorted t c =
  let s = c.time land mask in
  if t.head.(s) == t.nil || c.seq > t.tail.(s).seq then slot_append t s c
  else if c.seq < t.head.(s).seq then begin
    c.next <- t.head.(s);
    t.head.(s) <- c;
    t.wheel_count <- t.wheel_count + 1
  end
  else begin
    let p = ref t.head.(s) in
    while c.seq > !p.next.seq do
      p := !p.next
    done;
    c.next <- !p.next;
    !p.next <- c;
    t.wheel_count <- t.wheel_count + 1
  end

let in_window t time = time >= t.base && time - t.base < wheel_size

let transfer_in_window t =
  while t.heap_size > 0 && in_window t t.heap.(0).time do
    slot_insert_sorted t (heap_remove_top t)
  done

(* --- public operations --- *)

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t time payload =
  let seq = reserve_seq t in
  let c = alloc_cell t time seq payload in
  if in_window t time then slot_append t (time land mask) c else heap_push t c

(* A reserved seq can be older than cells already in its slot, so it is
   merged by [seq] like a cell migrating in from the heap. *)
let push_seq t time seq payload =
  let c = alloc_cell t time seq payload in
  if in_window t time then slot_insert_sorted t c else heap_push t c

(* Detach and return the earliest cell if its time is <= horizon, else
   [t.nil]. The caller owns the returned cell and must free it. *)
let rec pop_cell_if_le t horizon =
  if t.heap_size > 0 && t.heap.(0).time < t.base then begin
    (* A behind-the-window push: it beats anything in the wheel. *)
    if t.heap.(0).time > horizon then t.nil else heap_remove_top t
  end
  else begin
    transfer_in_window t;
    if t.wheel_count > 0 then begin
      let s = wheel_min_slot t in
      let c = t.head.(s) in
      if c.time > horizon then t.nil
      else begin
        t.head.(s) <- c.next;
        if c.next == t.nil then begin
          t.tail.(s) <- t.nil;
          bit_clear t s
        end;
        t.wheel_count <- t.wheel_count - 1;
        t.base <- c.time;
        c
      end
    end
    else if t.heap_size > 0 then begin
      (* Everything pending lies beyond the window: jump the window there. *)
      if t.heap.(0).time > horizon then t.nil
      else begin
        t.base <- t.heap.(0).time;
        pop_cell_if_le t horizon
      end
    end
    else t.nil
  end

let pop_if_before t horizon ~default =
  let c = pop_cell_if_le t horizon in
  if c == t.nil then default
  else begin
    t.last <- c.time;
    let payload = c.payload in
    free_cell t c;
    payload
  end

let pop t =
  let c = pop_cell_if_le t max_int in
  if c == t.nil then None
  else begin
    t.last <- c.time;
    let time = c.time and payload = c.payload in
    free_cell t c;
    Some (time, payload)
  end

let peek_time t =
  if is_empty t then None
  else begin
    let hm = if t.heap_size > 0 then t.heap.(0).time else max_int in
    let wm = if t.wheel_count > 0 then t.head.(wheel_min_slot t).time else max_int in
    Some (min hm wm)
  end

let clear t =
  if t.wheel_count > 0 then
    for s = 0 to wheel_size - 1 do
      let c = ref t.head.(s) in
      while !c != t.nil do
        let next = !c.next in
        free_cell t !c;
        c := next
      done;
      t.head.(s) <- t.nil;
      t.tail.(s) <- t.nil
    done;
  Array.fill t.l0 0 l0_words 0;
  Array.fill t.l1 0 l1_words 0;
  t.l2 <- 0;
  t.wheel_count <- 0;
  for i = 0 to t.heap_size - 1 do
    free_cell t t.heap.(i);
    t.heap.(i) <- t.nil
  done;
  t.heap_size <- 0;
  t.base <- Time.zero;
  t.next_seq <- 0
