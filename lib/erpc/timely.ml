(* The float state sits in a record of floats only, which OCaml stores
   flat: an update writes unboxed doubles in place, allocating nothing and
   calling no write barrier. In one record with the ints and [cc], every
   write would box its float. *)
type rates = {
  max_rate_bps : float;
  mutable rate_bps : float;
  mutable prev_rtt : float;
  mutable avg_rtt_diff : float;
}

type t = {
  cc : Config.cc;
  r : rates;
  mutable neg_gradient_count : int;
  mutable updates : int;
  mutable samples_since_update : int;
}

(* Fixed parameters. [t_low_ns] and [hai_thresh] are the Timely paper's
   values; [t_high_ns], [ewma_alpha] and [beta] are those of eRPC's Timely
   implementation. *)

(* Below: additive increase (50 µs). *)
let t_low_ns = 50_000

(* Above: multiplicative decrease (1 ms). *)
let t_high_ns = 1_000_000

(* Weight of a new RTT difference in the gradient's moving average. *)
let ewma_alpha = 0.46

(* Multiplicative-decrease factor. *)
let beta = 0.26

(* Consecutive non-positive gradients before hyperactive (5x) increase. *)
let hai_thresh = 5

let create ?(phase = 0) cc ~link_gbps =
  let max_rate = link_gbps *. 1e9 in
  {
    cc;
    r =
      {
        max_rate_bps = max_rate;
        rate_bps = max_rate;
        prev_rtt = float_of_int cc.min_rtt_ns;
        avg_rtt_diff = 0.;
      };
    neg_gradient_count = 0;
    updates = 0;
    (* Stagger sessions' update cadence so the fleet does not apply
       multiplicative decrease in lockstep. *)
    samples_since_update = phase mod max 1 cc.samples_per_update;
  }

let rate_bps t = t.r.rate_bps
let uncongested t = t.r.rate_bps >= t.r.max_rate_bps
let updates t = t.updates

let clamp t rate = Float.min t.r.max_rate_bps (Float.max Config.min_rate_bps rate)

let rec update t ~sample_rtt_ns =
  t.samples_since_update <- t.samples_since_update + 1;
  if t.samples_since_update >= t.cc.samples_per_update then begin
    t.samples_since_update <- 0;
    run_update t ~sample_rtt_ns
  end

and run_update t ~sample_rtt_ns =
  t.updates <- t.updates + 1;
  let r = t.r in
  let sample = float_of_int sample_rtt_ns in
  let rtt_diff = sample -. r.prev_rtt in
  r.prev_rtt <- sample;
  if rtt_diff <= 0. then t.neg_gradient_count <- t.neg_gradient_count + 1
  else t.neg_gradient_count <- 0;
  r.avg_rtt_diff <-
    ((1. -. ewma_alpha) *. r.avg_rtt_diff) +. (ewma_alpha *. rtt_diff);
  let normalized_gradient = r.avg_rtt_diff /. float_of_int t.cc.min_rtt_ns in
  let new_rate =
    if sample_rtt_ns < t_low_ns then r.rate_bps +. t.cc.add_rate_bps
    else if sample_rtt_ns > t_high_ns then
      r.rate_bps *. (1. -. (beta *. (1. -. (float_of_int t_high_ns /. sample))))
    else if normalized_gradient <= 0. then begin
      (* Hyperactive increase after [hai_thresh] consecutive decreases in
         RTT: recover bandwidth quickly once the queue drains. *)
      let n = if t.neg_gradient_count >= hai_thresh then 5. else 1. in
      r.rate_bps +. (n *. t.cc.add_rate_bps)
    end
    else
      (* One update cuts at most half, as in eRPC's Timely implementation. *)
      r.rate_bps *. Float.max 0.5 (1. -. (beta *. normalized_gradient))
  in
  r.rate_bps <- clamp t new_rate

let bypassable t ~rtt_ns = uncongested t && rtt_ns < t_low_ns

let pacing_delay_ns t ~bytes =
  int_of_float (ceil (float_of_int (bytes * 8) /. t.r.rate_bps *. 1e9))

let set_rate_bps t rate = t.r.rate_bps <- clamp t rate
