(* Releases not yet due sit in a binary min-heap of [at lsl size_bits lor
   size], so the pool settles in time order whichever port a release came
   from. *)
let size_bits = 16
let size_mask = (1 lsl size_bits) - 1

type t = {
  capacity : int;
  alpha : float;
  mutable used : int;
  mutable max_used : int;
  mutable pending : int array;
  mutable n_pending : int;
}

let create ~capacity_bytes ~alpha =
  assert (capacity_bytes > 0 && alpha > 0.);
  { capacity = capacity_bytes; alpha; used = 0; max_used = 0; pending = Array.make 16 0; n_pending = 0 }

let used t = t.used
let free t = t.capacity - t.used

let admit ?(force = false) t ~port_queued_bytes ~size =
  let threshold = t.alpha *. float_of_int (free t) in
  if
    force
    || (float_of_int (port_queued_bytes + size) <= threshold && t.used + size <= t.capacity)
  then begin
    t.used <- t.used + size;
    if t.used > t.max_used then t.max_used <- t.used;
    true
  end
  else false

let release t size =
  assert (t.used >= size);
  t.used <- t.used - size

let release_at t ~at ~size =
  if size > size_mask then invalid_arg "Buffer_pool.release_at: size too large";
  if t.n_pending = Array.length t.pending then begin
    let a = Array.make (2 * t.n_pending) 0 in
    Array.blit t.pending 0 a 0 t.n_pending;
    t.pending <- a
  end;
  let h = t.pending in
  let x = (at lsl size_bits) lor size in
  let i = ref t.n_pending in
  t.n_pending <- t.n_pending + 1;
  while !i > 0 && h.((!i - 1) / 2) > x do
    let p = (!i - 1) / 2 in
    h.(!i) <- h.(p);
    i := p
  done;
  h.(!i) <- x

let pop t =
  let h = t.pending in
  let top = h.(0) in
  let n = t.n_pending - 1 in
  t.n_pending <- n;
  let x = h.(n) in
  let i = ref 0 and continue = ref (n > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < x then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then h.(!i) <- x;
  top

let settle t ~before =
  while t.n_pending > 0 && t.pending.(0) lsr size_bits < before do
    release t (pop t land size_mask)
  done

(* Bytes of the releases due exactly at [now], once everything earlier
   has settled: they form the top of the heap. *)
let rec due_at t now i =
  if i >= t.n_pending || t.pending.(i) lsr size_bits > now then 0
  else (t.pending.(i) land size_mask) + due_at t now ((2 * i) + 1) + due_at t now ((2 * i) + 2)

let used_through t now =
  settle t ~before:now;
  t.used - due_at t now 0

let max_used t = t.max_used
