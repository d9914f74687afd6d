(** Typed wire codecs with two backends.

    The paper deliberately keeps eRPC's API at the level of opaque
    DMA-capable buffers: "a library that provides marshalling and
    unmarshalling can be used as a layer on top of eRPC" (§3.1). This is
    that layer. A ['a t] describes how to put values of type ['a] on the
    wire; two backends share each schema:

    - {!Compact}: the length-prefixed little-endian binary layout.
      Variable-size fields cost only what they use; every codec supports
      it.
    - {!Flat}: a fixed-offset layout in which every field lives at a
      statically known offset, so the wire size is constant. Only codecs
      built purely from bounded pieces support it.

    Decoding is always eager: a message is decoded whole. Codecs also
    report a per-value {e leaf count} — the number of primitive fields
    touched by an encode or decode — which is what the simulator's cost
    model charges per field, plus the byte footprint for bulk-copy
    charges.

    Decoding failures (truncation, bad tags, trailing bytes) raise
    {!Decode_error}; they never raise [Invalid_argument] or return
    garbage. [Invalid_argument] is reserved for caller bugs: values out of
    range for their field, codecs used with a backend they don't
    support.

    Msgbuf integration lives in [Erpc.Typed] (this library is beneath the
    transport so both [erpc] and plain data code can use it). *)

exception Decode_error of string

type backend = Compact | Flat

val backend_name : backend -> string

type 'a t

(** {1 Primitives} *)

val u32 : int t
val bool : bool t

val fixed_string : int -> string t
(** Exactly [n] bytes, no length prefix. Writing a string of any other
    length raises [Invalid_argument]. *)

val string : string t
(** u32 length + bytes. Unbounded, hence no flat layout. *)

val bounded_string : int -> string t
(** Same compact wire format as {!string}, but with a declared capacity
    [cap]. The flat layout reserves [4 + cap] bytes (u32 length + storage,
    slack zero-filled). Writing more than [cap] bytes raises
    [Invalid_argument]; decoding a length > [cap] raises {!Decode_error}. *)

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val map : into:('a -> 'b) -> from:('b -> 'a) -> 'a t -> 'b t
(** [map ~into ~from c] builds a codec for a richer type from codec [c]. *)

val tail_list : 'a t -> 'a list t
(** Elements with {e no} count prefix, read until the end of the message.
    Only valid as the final field of a schema. Compact only. *)

val tail_option : 'a t -> 'a option t
(** Presence encoded by message length: [Some] iff any bytes remain before
    the end of the message. Only valid as the final field of a schema.
    Compact only. *)

(** {1 Tagged unions} *)

type 'a case

val case : tag:int -> 'b t -> inj:('b -> 'a) -> proj:('a -> 'b option) -> 'a case
(** One constructor of a variant: a u8 [tag] (unique within the variant)
    followed by the payload. [proj] returns [Some] iff the value belongs
    to this case. *)

val variant : name:string -> 'a case list -> 'a t
(** Compact only. Decoding an unknown tag raises {!Decode_error}. *)

(** {1 Sizes} *)

val size : 'a t -> 'a -> int
(** Exact compact encoded size of a value. *)

val encoded_size : backend:backend -> 'a t -> 'a -> int

val encoded_leaves : backend:backend -> 'a t -> 'a -> int
(** The value's leaf count; the same under both backends. Raises
    [Invalid_argument] under [Flat] if the codec has no flat layout. *)

(** {1 Encode / decode} *)

val encode : backend:backend -> 'a t -> bytes -> int -> 'a -> int
(** [encode ~backend c b off v] writes [v] at [off] and returns the end
    offset. The caller must have sized [b] via {!encoded_size}; [Flat]
    bounds-checks first and raises [Invalid_argument] on a too-small
    buffer without touching it. *)

val decode : backend:backend -> 'a t -> bytes -> off:int -> len:int -> 'a
(** Decodes exactly the [len] bytes at [off]. [Compact] requires full
    consumption — trailing bytes raise {!Decode_error}, as does any
    truncated or malformed prefix. [Flat] requires [len] to be the flat
    layout's fixed size. *)

val to_bytes : 'a t -> 'a -> bytes
(** The compact encoding of a value. *)

val of_bytes : 'a t -> bytes -> 'a
(** Decodes a whole compact message. *)
