(* The 64-bit SplitMix64 state lives unboxed in 8 bytes: a draw reads,
   advances and writes it back without allocating an [Int64] or going
   through the GC write barrier. [next] and [float] are inlined so their
   callers keep the drawn value unboxed too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool_with_prob t p = float t < p

let exponential t mean =
  let u = float t in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u
