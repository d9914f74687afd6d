type impl = Wheel | Binheap

let default_impl = ref Wheel
let set_default_impl i = default_impl := i

type 'a t = W of 'a Timing_wheel.t | H of 'a Binheap.t

let create ?impl () =
  match match impl with Some i -> i | None -> !default_impl with
  | Wheel -> W (Timing_wheel.create ())
  | Binheap -> H (Binheap.create ())

let is_empty = function W q -> Timing_wheel.is_empty q | H q -> Binheap.is_empty q
let length = function W q -> Timing_wheel.length q | H q -> Binheap.length q

let push t time payload =
  match t with
  | W q -> Timing_wheel.push q time payload
  | H q -> Binheap.push q time payload

let reserve_seq = function
  | W q -> Timing_wheel.reserve_seq q
  | H q -> Binheap.reserve_seq q

let push_seq t time seq payload =
  match t with
  | W q -> Timing_wheel.push_seq q time seq payload
  | H q -> Binheap.push_seq q time seq payload

let pop = function W q -> Timing_wheel.pop q | H q -> Binheap.pop q

let pop_if_before t horizon ~default =
  match t with
  | W q -> Timing_wheel.pop_if_before q horizon ~default
  | H q -> Binheap.pop_if_before q horizon ~default

(* Wheel load factor; the binheap has no calendar structure, so its
   occupancy degenerates to its length. *)
let occupied_slots = function
  | W q -> Timing_wheel.occupied_slots q
  | H q -> Binheap.length q

let last_time = function W q -> Timing_wheel.last_time q | H q -> Binheap.last_time q
let peek_time = function W q -> Timing_wheel.peek_time q | H q -> Binheap.peek_time q
let clear = function W q -> Timing_wheel.clear q | H q -> Binheap.clear q
