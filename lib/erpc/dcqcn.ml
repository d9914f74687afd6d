type t = {
  max_rate_bps : float;
  mutable rc : float;  (* current rate *)
  mutable rt : float;  (* target rate *)
  mutable alpha : float;
  mutable last_cut : Sim.Time.t;
  mutable last_alpha_update : Sim.Time.t;
  mutable last_increase : Sim.Time.t;
  mutable recovery_rounds : int;  (* increase steps since the last cut *)
  mutable cuts : int;
}

(* Fixed parameters. [alpha_timer_ns], [increase_timer_ns],
   [cnp_interval_ns] and [fast_recovery] are the DCQCN paper's values; [g]
   and [rai_bps] are this model's (the paper's are 1/256 and 40 Mbps). The
   rate floor is [Config.min_rate_bps]. *)

(* Gain of the alpha moving average. *)
let g = 1. /. 16.

(* Additive target increase per recovery round after fast recovery. *)
let rai_bps = 100e6

(* Alpha decays once per this period without notifications. *)
let alpha_timer_ns = 55_000

(* Rate recovery runs at most once per this period. *)
let increase_timer_ns = 55_000

(* At most one rate cut per this period. *)
let cnp_interval_ns = 50_000

(* Fast-recovery rounds before additive increase. *)
let fast_recovery = 5

let create ~link_gbps =
  let max_rate = link_gbps *. 1e9 in
  {
    max_rate_bps = max_rate;
    rc = max_rate;
    rt = max_rate;
    alpha = 0.2;
    last_cut = Sim.Time.zero;
    last_alpha_update = Sim.Time.zero;
    last_increase = Sim.Time.zero;
    recovery_rounds = 0;
    cuts = 0;
  }

let rate_bps t = t.rc
let uncongested t = t.rc >= t.max_rate_bps
let cuts t = t.cuts

let clamp t r = Float.min t.max_rate_bps (Float.max Config.min_rate_bps r)

let cut t now =
  t.cuts <- t.cuts + 1;
  t.rt <- t.rc;
  t.rc <- clamp t (t.rc *. (1. -. (t.alpha /. 2.)));
  t.alpha <- ((1. -. g) *. t.alpha) +. g;
  t.recovery_rounds <- 0;
  t.last_cut <- now;
  t.last_alpha_update <- now;
  t.last_increase <- now

let increase t now =
  t.recovery_rounds <- t.recovery_rounds + 1;
  if t.recovery_rounds > fast_recovery then
    (* Additive increase stage: push the target up, then converge. *)
    t.rt <- clamp t (t.rt +. rai_bps);
  t.rc <- clamp t ((t.rt +. t.rc) /. 2.);
  t.last_increase <- now

let on_ack t ~marked ~now_ns =
  if marked then begin
    if Sim.Time.sub now_ns t.last_cut >= cnp_interval_ns then cut t now_ns
  end
  else begin
    (* Alpha decays while no congestion notifications arrive. *)
    if Sim.Time.sub now_ns t.last_alpha_update >= alpha_timer_ns then begin
      t.alpha <- (1. -. g) *. t.alpha;
      t.last_alpha_update <- now_ns
    end;
    if
      t.rc < t.max_rate_bps
      && Sim.Time.sub now_ns t.last_increase >= increase_timer_ns
    then increase t now_ns
  end

let pacing_delay_ns t ~bytes =
  int_of_float (ceil (float_of_int (bytes * 8) /. t.rc *. 1e9))
