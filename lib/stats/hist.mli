(** Log-linear histogram (HDR-style) for non-negative integer samples.

    64 linear sub-buckets per power of two give ~1.6% relative precision at
    any magnitude with a small fixed footprint, so recording a sample is a
    couple of arithmetic operations — cheap enough for per-packet RTTs. *)

type t

val create : unit -> t

val record : t -> int -> unit
val record_n : t -> int -> n:int -> unit

val count : t -> int
val min : t -> int
val max : t -> int
val mean : t -> float
val total : t -> int

(** [percentile t p] with [p] in [0,100]. Raises [Invalid_argument] on an
    empty histogram. Returns a representative value of the bucket containing
    the requested rank. *)
val percentile : t -> float -> int

val median : t -> int

(** Merge [src] into [dst]. *)
val merge : dst:t -> src:t -> unit

(** {2 Bucket layout} — exposed for property tests and exporters. *)

val num_buckets : int

val bucket_index : int -> int
(** Bucket holding a (non-negative) sample value. *)

val bucket_value : int -> int
(** Representative (midpoint) value of a bucket; values below 64 are exact,
    larger ones within [2^-6] relative error of any sample in the bucket. *)

val clear : t -> unit
