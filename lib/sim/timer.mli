(** One-shot cancellable timer over an {!Engine}.

    Re-arming an armed timer replaces the previous deadline; the callback
    runs once, at the last armed deadline, unless {!disarm} cancels it.

    Re-arming is lazy. A timer owns one registered event handler and
    normally at most one queued event: a re-arm to a deadline no earlier
    than that event schedules nothing, and when the event fires early it
    re-posts itself at the current deadline. Only a re-arm to an earlier
    deadline queues another event. Each arm reserves the engine's
    tie-break slot ({!Engine.reserve_seq}) and the callback runs under it,
    so execution order is exactly that of a timer that queued one event
    per arm and ignored the stale ones. *)

type t

val create : Engine.t -> callback:(unit -> unit) -> t

(** Arm (or re-arm) to fire at the given absolute time. Raises
    [Invalid_argument] if that time is in the past. *)
val arm : t -> Time.t -> unit

(** Arm (or re-arm) to fire after the given delay. *)
val arm_after : t -> Time.t -> unit

val disarm : t -> unit
val is_armed : t -> bool

(** Deadline of the armed timer. Raises [Invalid_argument] if unarmed. *)
val deadline : t -> Time.t

(** Number of this timer's events in the engine queue, live or not. At
    most one while re-arms never move the deadline earlier. *)
val queued : t -> int
