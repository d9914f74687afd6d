type 'a t = {
  slot_ns : int;
  num_slots : int;
  slots : 'a Queue.t array;
  mutable cursor_slot : int;  (* absolute slot index up to which we have polled *)
  mutable pending : int;
}

let create ~slot_ns ~num_slots =
  assert (slot_ns > 0 && num_slots > 1);
  {
    slot_ns;
    num_slots;
    slots = Array.init num_slots (fun _ -> Queue.create ());
    cursor_slot = 0;
    pending = 0;
  }

let horizon_ns t = t.slot_ns * (t.num_slots - 1)

let insert t ~now ~at x =
  let at = Int.max at now in
  let at = Int.min at (now + horizon_ns t) in
  let abs_slot = Int.max (at / t.slot_ns) t.cursor_slot in
  Queue.add x t.slots.(abs_slot mod t.num_slots);
  t.pending <- t.pending + 1

let poll t ~now f =
  let target = now / t.slot_ns in
  let delivered = ref 0 in
  while t.cursor_slot <= target && t.pending > 0 do
    let q = t.slots.(t.cursor_slot mod t.num_slots) in
    while not (Queue.is_empty q) do
      let x = Queue.take q in
      t.pending <- t.pending - 1;
      incr delivered;
      f x
    done;
    t.cursor_slot <- t.cursor_slot + 1
  done;
  if t.cursor_slot <= target then t.cursor_slot <- target + 1;
  !delivered

let pending t = t.pending
