type t = int

let zero = 0
let ns n = n
let us f = int_of_float (f *. 1e3 +. 0.5)
let ms f = int_of_float (f *. 1e6 +. 0.5)
let s f = int_of_float (f *. 1e9 +. 0.5)

let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_s t = float_of_int t /. 1e9

let add = ( + )
let sub = ( - )

let of_bytes_at_gbps bytes gbps =
  (* bits / (gbps * 1e9) seconds = bits / gbps nanoseconds *)
  let bits = float_of_int (bytes * 8) in
  int_of_float (ceil (bits /. gbps))

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%d ns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2f us" (to_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3f ms" (to_ms t)
  else Format.fprintf fmt "%.3f s" (to_s t)
