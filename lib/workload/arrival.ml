type spec =
  | Poisson of { rate_rps : float }
  | On_off of { rate_rps : float; on_ns : int; off_ns : int }
  | Ramp of { base_rps : float; peak_rps : float; period_ns : int }

type t = { spec : spec; rng : Sim.Rng.t }

let validate = function
  | Poisson { rate_rps } -> if rate_rps <= 0. then invalid_arg "Arrival: rate_rps <= 0"
  | On_off { rate_rps; on_ns; off_ns } ->
      if rate_rps <= 0. then invalid_arg "Arrival: rate_rps <= 0";
      if on_ns <= 0 then invalid_arg "Arrival: on_ns <= 0";
      if off_ns < 0 then invalid_arg "Arrival: off_ns < 0"
  | Ramp { base_rps; peak_rps; period_ns } ->
      if base_rps <= 0. then invalid_arg "Arrival: base_rps <= 0";
      if peak_rps < base_rps then invalid_arg "Arrival: peak_rps < base_rps";
      if period_ns <= 0 then invalid_arg "Arrival: period_ns <= 0"

let make spec ~rng =
  validate spec;
  { spec; rng }

let spec t = t.spec

(* Mean interarrival gap in ns at [rate] rps, at least 1 ns so sequences
   are strictly increasing. *)
let exp_gap_ns rng rate = max 1 (int_of_float (Sim.Rng.exponential rng (1e9 /. rate)))

(* Raised-cosine diurnal profile: base at phase 0, peak at half period. *)
let ramp_rate ~base_rps ~peak_rps ~period_ns now_ns =
  let phase = float_of_int (now_ns mod period_ns) /. float_of_int period_ns in
  base_rps +. ((peak_rps -. base_rps) *. 0.5 *. (1. -. cos (2. *. Float.pi *. phase)))

let active_at spec ~now_ns =
  match spec with
  | On_off { on_ns; off_ns; _ } -> now_ns mod (on_ns + off_ns) < on_ns
  | Poisson _ | Ramp _ -> true

let mean_rate_rps = function
  | Poisson { rate_rps } -> rate_rps
  | On_off { rate_rps; on_ns; off_ns } ->
      rate_rps *. (float_of_int on_ns /. float_of_int (on_ns + off_ns))
  | Ramp { base_rps; peak_rps; _ } -> 0.5 *. (base_rps +. peak_rps)

let next_after t ~now_ns =
  if now_ns < 0 then invalid_arg "Arrival.next_after: now_ns < 0";
  match t.spec with
  | Poisson { rate_rps } -> now_ns + exp_gap_ns t.rng rate_rps
  | On_off { rate_rps; on_ns; off_ns } ->
      (* Exact two-state modulation with deterministic phase windows: map
         wall time to accumulated on-time, draw the exponential gap there,
         and map back. Off-windows contribute no on-time, so arrivals never
         land in them and the on-window process is exactly Poisson. *)
      let period = on_ns + off_ns in
      let active_of_wall t_ns =
        let full = t_ns / period and rem = t_ns mod period in
        (full * on_ns) + min rem on_ns
      in
      let wall_of_active a_ns =
        (* Inverse restricted to on-windows: active time a maps to the a-th
           nanosecond of on-time. [rem = 0] lands on an on-window start. *)
        let full = a_ns / on_ns and rem = a_ns mod on_ns in
        (full * period) + rem
      in
      let a = active_of_wall now_ns + exp_gap_ns t.rng rate_rps in
      let arrival = wall_of_active a in
      (* [active_of_wall] is flat across off-windows, so an off-window
         [now_ns] can map back to the *start* of the window it sits in;
         the gap >= 1 ns guarantees progress past any in-window point. *)
      if arrival > now_ns then arrival else now_ns + 1
  | Ramp { base_rps; peak_rps; period_ns } ->
      (* Ogata thinning against the constant envelope [peak_rps]: propose
         Poisson(peak) candidates, accept with probability
         rate(candidate)/peak. Acceptance probability is >= base/peak > 0,
         so this terminates; the iteration cap is unreachable paranoia. *)
      let rec propose t_ns budget =
        let cand = t_ns + exp_gap_ns t.rng peak_rps in
        if budget = 0 then cand
        else
          let accept =
            Sim.Rng.float t.rng
            < ramp_rate ~base_rps ~peak_rps ~period_ns cand /. peak_rps
          in
          if accept then cand else propose cand (budget - 1)
      in
      propose now_ns 100_000
