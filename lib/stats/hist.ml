let sub_bucket_bits = 6
let sub_buckets = 1 lsl sub_bucket_bits (* 64 *)

(* Layout: indexes [0, 64) record values < 64 exactly; block b >= 1 covers
   [2^m, 2^(m+1)) with m = b + 5, split into 64 linear sub-buckets. *)
let num_blocks = 50
let num_buckets = (num_blocks + 1) * sub_buckets

type t = {
  buckets : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make num_buckets 0; count = 0; total = 0; min_v = max_int; max_v = 0 }

let bucket_index v =
  if v < sub_buckets then v
  else begin
    let m = Bits.msb v in
    let block = m - sub_bucket_bits + 1 in
    let mantissa = (v lsr (m - sub_bucket_bits)) land (sub_buckets - 1) in
    (block * sub_buckets) + mantissa
  end

(* Midpoint of the bucket's value range. *)
let bucket_value idx =
  if idx < sub_buckets then idx
  else begin
    let block = idx / sub_buckets in
    let mantissa = idx mod sub_buckets in
    let m = block + sub_bucket_bits - 1 in
    let low = (1 lsl m) lor (mantissa lsl (m - sub_bucket_bits)) in
    let width = 1 lsl (m - sub_bucket_bits) in
    low + (width / 2)
  end

let record_n t v ~n =
  assert (n > 0);
  let v = if v < 0 then 0 else v in
  let idx = bucket_index v in
  t.buckets.(idx) <- t.buckets.(idx) + n;
  t.count <- t.count + n;
  t.total <- t.total + (v * n);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let record t v = record_n t v ~n:1

let count t = t.count
let min t = if t.count = 0 then 0 else t.min_v
let max t = t.max_v
let total t = t.total
let mean t = if t.count = 0 then 0. else float_of_int t.total /. float_of_int t.count

let percentile t p =
  if t.count = 0 then invalid_arg "Hist.percentile: empty histogram";
  if p < 0. || p > 100. then invalid_arg "Hist.percentile: p out of range";
  let rank = int_of_float (Float.max 1. (ceil (p /. 100. *. float_of_int t.count))) in
  let acc = ref 0 in
  let result = ref t.max_v in
  (try
     for i = 0 to num_buckets - 1 do
       acc := !acc + t.buckets.(i);
       if !acc >= rank then begin
         result := bucket_value i;
         raise Exit
       end
     done
   with Exit -> ());
  (* Clamp to the observed range: bucket midpoints can exceed the true
     extremes. *)
  Stdlib.min (Stdlib.max !result t.min_v) t.max_v

let median t = percentile t 50.

let merge ~dst ~src =
  Array.iteri (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.total <- dst.total + src.total;
  if src.count > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.buckets 0 num_buckets 0;
  t.count <- 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0
