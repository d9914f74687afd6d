(* The Carousel's slot order, kept in a binary min-heap of parallel int
   arrays instead of a [num_slots] ring. An entry inserted when the
   cursor is at slot [c] lands in ring slot [s mod num_slots], which the
   cursor next reaches at absolute slot [c + (s - c) mod num_slots]; that
   delivery slot, tie-broken by insertion order, is the heap key. So the
   heap delivers exactly the ring's sequence (FIFO within a slot, the
   horizon clamp, a cursor that lags [now]) while holding memory for the
   pending entries only. Inserting and polling store only ints, so the
   wheel allocates nothing in steady state and never calls the GC write
   barrier. *)

type t = {
  slot_ns : int;
  num_slots : int;
  mutable slot : int array;  (* heap: delivery slot, then [seq] *)
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable cursor_slot : int;  (* absolute slot index up to which we have polled *)
}

let create ~slot_ns ~num_slots =
  assert (slot_ns > 0 && num_slots > 1);
  {
    slot_ns;
    num_slots;
    slot = [||];
    seq = [||];
    value = [||];
    size = 0;
    next_seq = 0;
    cursor_slot = 0;
  }

let horizon_ns t = t.slot_ns * (t.num_slots - 1)

let grow t =
  let m = Int.max 16 (2 * t.size) in
  let extend a = Array.append a (Array.make (m - t.size) 0) in
  t.slot <- extend t.slot;
  t.seq <- extend t.seq;
  t.value <- extend t.value

(* Whether key (s, q) orders before the entry at [i]. *)
let before t s q i = s < t.slot.(i) || (s = t.slot.(i) && q < t.seq.(i))

let set t i s q v =
  t.slot.(i) <- s;
  t.seq.(i) <- q;
  t.value.(i) <- v

let move t ~src ~dst = set t dst t.slot.(src) t.seq.(src) t.value.(src)

(* Fill the hole at [i] with (s, q, v), moving down each ancestor that
   (s, q) orders before. *)
let rec sift_up t i s q v =
  let p = (i - 1) / 2 in
  if i > 0 && before t s q p then begin
    move t ~src:p ~dst:i;
    sift_up t p s q v
  end
  else set t i s q v

(* Fill the hole at [i] with (s, q, v), moving up each child that orders
   before (s, q). *)
let rec sift_down t i s q v =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i s q v
  else
    let c = if l + 1 < t.size && before t t.slot.(l + 1) t.seq.(l + 1) l then l + 1 else l in
    if before t s q c then set t i s q v
    else begin
      move t ~src:c ~dst:i;
      sift_down t c s q v
    end

let insert t ~now ~at x =
  let at = Int.max at now in
  let at = Int.min at (now + horizon_ns t) in
  let s = Int.max (at / t.slot_ns) t.cursor_slot in
  if t.size = Array.length t.slot then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) (t.cursor_slot + ((s - t.cursor_slot) mod t.num_slots)) t.next_seq x;
  t.next_seq <- t.next_seq + 1

let poll t ~now f =
  let target = now / t.slot_ns in
  let delivered = ref 0 in
  while t.size > 0 && t.slot.(0) <= target do
    (* The ring's cursor stands at the slot being drained while [f] runs,
       so entries [f] inserts land where the ring would put them. *)
    t.cursor_slot <- t.slot.(0);
    let x = t.value.(0) in
    t.size <- t.size - 1;
    sift_down t 0 t.slot.(t.size) t.seq.(t.size) t.value.(t.size);
    incr delivered;
    f x
  done;
  if t.cursor_slot <= target then t.cursor_slot <- target + 1;
  !delivered

let pending t = t.size
