type t =
  | Uniform of int
  | Zipf of { n : int; alpha : float; zetan : float; eta : float; theta : float }
  | Hot_shift of { base : t; period_ns : int; stride : int; n : int }

let uniform ~n =
  assert (n > 0);
  Uniform n

let zeta n theta =
  let acc = ref 0. in
  for i = 1 to n do
    acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
  done;
  !acc

let zipf ~n ~theta =
  assert (n > 0 && theta > 0. && theta < 1.);
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. Float.pow (2. /. float_of_int n) (1. -. theta)) /. (1. -. (zeta2 /. zetan)) in
  Zipf { n; alpha; zetan; eta; theta }

let space = function
  | Uniform n -> n
  | Zipf { n; _ } -> n
  | Hot_shift { n; _ } -> n

let hot_shift ~base ~period_ns ~stride =
  if period_ns <= 0 then invalid_arg "Keygen.hot_shift: period_ns <= 0";
  if stride <= 0 then invalid_arg "Keygen.hot_shift: stride <= 0";
  Hot_shift { base; period_ns; stride; n = space base }

let rec next_at t rng ~now_ns =
  match t with
  | Uniform n -> Sim.Rng.int rng n
  | Zipf { n; alpha; zetan; eta; theta } ->
      let u = Sim.Rng.float rng in
      let uz = u *. zetan in
      if uz < 1. then 0
      else if uz < 1. +. Float.pow 0.5 theta then 1
      else
        let v = float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.) alpha in
        min (n - 1) (int_of_float v)
  | Hot_shift { base; period_ns; stride; n } ->
      (* Reduce the epoch count mod n before multiplying so the rotation
         never overflows, no matter how long the simulation runs. *)
      let shift = now_ns / period_ns mod n * stride mod n in
      (next_at base rng ~now_ns + shift) mod n

let encode ?(width = 16) k =
  if k < 0 then invalid_arg "Keygen.encode: negative id";
  (* Ids wider than [width] keep all their digits (see the .mli): padding
     is a floor, never a truncation, so encoding stays injective. *)
  Printf.sprintf "%0*d" width k

(* 64-bit FNV-1a, truncated to OCaml's positive int range. Used wherever a
   key must map to a stable partition (shard maps, future load balancers):
   the placement is then a pure function of the key bytes, identical on
   clients and replicas. A plain loop, not [String.iter]: an accumulator
   captured by a closure boxes an [Int64] per byte (54 minor words for a
   16-byte key), while a local one stays unboxed and allocates nothing.
   It runs once per KV op. *)
let fnv1a s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        1099511628211L
  done;
  (* Mask to OCaml's 63-bit native int: [Int64.to_int] of anything in
     [2^62, 2^63) would wrap negative. *)
  Int64.to_int !h land max_int

let shard ~shards key = fnv1a key mod shards
