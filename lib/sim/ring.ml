type t = {
  mutable buf : int array;
  mutable head : int; (* next element to take *)
  mutable len : int;
}

let create ?(capacity = 16) () = { buf = Array.make (Int.max 2 capacity) 0; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let b = Array.make (2 * cap) 0 in
  let tail_len = Int.min t.len (cap - t.head) in
  Array.blit t.buf t.head b 0 tail_len;
  Array.blit t.buf 0 b tail_len (t.len - tail_len);
  t.buf <- b;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let i = t.head + t.len in
  let cap = Array.length t.buf in
  t.buf.(if i >= cap then i - cap else i) <- x;
  t.len <- t.len + 1

let take t =
  if t.len = 0 then invalid_arg "Ring.take: empty";
  let x = t.buf.(t.head) in
  t.head <- (if t.head + 1 = Array.length t.buf then 0 else t.head + 1);
  t.len <- t.len - 1;
  x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  let j = t.head + i in
  let cap = Array.length t.buf in
  t.buf.(if j >= cap then j - cap else j)
