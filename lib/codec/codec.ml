exception Decode_error of string

type backend = Compact | Flat

let backend_name = function Compact -> "compact" | Flat -> "flat"

let fail msg = raise (Decode_error msg)

(* A flat layout puts every field at a statically known offset, so its
   footprint is fixed. *)
type 'a flat = {
  f_size : int;  (* fixed wire footprint *)
  f_write : bytes -> int -> 'a -> unit;  (* bounds pre-checked by caller *)
  f_read : bytes -> int -> 'a;  (* bounds pre-checked; content may still fail *)
}

(* Compact readers advance a cursor over [cbuf] and never read at or past
   [climit]; one cursor is allocated per decode, so reading a leaf or a
   combinator allocates nothing beyond the decoded value itself. *)
type cursor = { cbuf : bytes; climit : int; mutable cpos : int }

(* A codec is an exact-size function, limit-aware writers/readers over a
   bytes buffer (compact backend), a per-value leaf count for the cost
   model — a "leaf" is one primitive field, and encoding or decoding costs
   per-leaf work plus bulk byte movement — and optionally a fixed-offset
   flat layout. Writers return the next offset. [fixed_size] and
   [fixed_leaves] are the compact size and leaf count shared by every
   value, or -1 when they depend on the value: [size] and [leaves] of a
   fixed codec answer without looking at (or, through [map], rebuilding)
   the value. Every flat-capable codec has a fixed leaf count, which both
   backends charge. *)
type 'a t = {
  size : 'a -> int;
  write : bytes -> int -> 'a -> int;
  read : cursor -> 'a;
  leaves : 'a -> int;
  fixed_size : int;
  fixed_leaves : int;
  flat : 'a flat option;
}

let need cur n what =
  let off = cur.cpos in
  if off < 0 || off + n > cur.climit || off + n > Bytes.length cur.cbuf then
    fail
      (Printf.sprintf "truncated %s at offset %d (need %d, have %d)" what off n
         (min cur.climit (Bytes.length cur.cbuf) - off))

(* Sum of two per-value quantities; -1 (value-dependent) is absorbing. *)
let fixed_sum m n = if m < 0 || n < 0 then -1 else m + n

let const_fn n = fun _ -> n

(* {2 Primitives} *)

let prim ~n ~what ~wr ~rd =
  {
    size = const_fn n;
    write =
      (fun b off v ->
        wr b off v;
        off + n);
    read =
      (fun cur ->
        need cur n what;
        let off = cur.cpos in
        cur.cpos <- off + n;
        rd cur.cbuf off);
    leaves = const_fn 1;
    fixed_size = n;
    fixed_leaves = 1;
    flat = Some { f_size = n; f_write = wr; f_read = rd };
  }

(* Variant tags only. *)
let u8 =
  prim ~n:1 ~what:"u8"
    ~wr:(fun b off v -> Bytes.set_uint8 b off v)
    ~rd:(fun b off -> Bytes.get_uint8 b off)

let u32 =
  prim ~n:4 ~what:"u32"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
      Bytes.set_int32_le b off (Int32.of_int v))
    ~rd:(fun b off -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF)

let bool =
  prim ~n:1 ~what:"bool"
    ~wr:(fun b off v -> Bytes.set_uint8 b off (if v then 1 else 0))
    ~rd:(fun b off ->
      match Bytes.get_uint8 b off with
      | 0 -> false
      | 1 -> true
      | n -> fail (Printf.sprintf "invalid bool byte %d" n))

let fixed_string n =
  let wr b off s =
    if String.length s <> n then
      invalid_arg
        (Printf.sprintf "Codec.fixed_string: expected %d bytes, got %d" n (String.length s));
    Bytes.blit_string s 0 b off n
  in
  prim ~n ~what:"fixed_string" ~wr ~rd:(fun b off -> Bytes.sub_string b off n)

(* A u32 length prefix followed by that many bytes; [cap] < 0 means no
   capacity. *)
let read_body cur ~cap what =
  let n = u32.read cur in
  if cap >= 0 && n > cap then
    fail (Printf.sprintf "bounded_string length %d exceeds capacity %d" n cap);
  need cur n what;
  let off = cur.cpos in
  cur.cpos <- off + n;
  Bytes.sub_string cur.cbuf off n

let write_body b off s =
  let n = String.length s in
  let off = u32.write b off n in
  Bytes.blit_string s 0 b off n;
  off + n

let string =
  {
    size = (fun s -> 4 + String.length s);
    write = write_body;
    read = (fun cur -> read_body cur ~cap:(-1) "string body");
    leaves = const_fn 1;
    fixed_size = -1;
    fixed_leaves = 1;
    flat = None;
  }

(* Same compact wire format as [string], but with a declared capacity, which
   gives it a flat layout: u32 length at a fixed offset followed by [cap]
   reserved bytes (slack zero-filled so encodes stay deterministic). *)
let bounded_string cap =
  let check s =
    if String.length s > cap then
      invalid_arg
        (Printf.sprintf "Codec.bounded_string: %d bytes exceeds capacity %d" (String.length s)
           cap)
  in
  {
    size =
      (fun s ->
        check s;
        4 + String.length s);
    write =
      (fun b off s ->
        check s;
        write_body b off s);
    read = (fun cur -> read_body cur ~cap "bounded_string body");
    leaves = const_fn 1;
    fixed_size = -1;
    fixed_leaves = 1;
    flat =
      Some
        {
          f_size = 4 + cap;
          f_write =
            (fun b off s ->
              check s;
              let n = String.length s in
              ignore (u32.write b off n);
              Bytes.blit_string s 0 b (off + 4) n;
              Bytes.fill b (off + 4 + n) (cap - n) '\000');
          f_read =
            (fun b off ->
              let n = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
              if n > cap then
                fail (Printf.sprintf "bounded_string length %d exceeds capacity %d" n cap);
              Bytes.sub_string b (off + 4) n);
        };
  }

(* {2 Combinators} *)

let pair a b =
  let fixed_size = fixed_sum a.fixed_size b.fixed_size in
  let fixed_leaves = fixed_sum a.fixed_leaves b.fixed_leaves in
  {
    size =
      (if fixed_size >= 0 then const_fn fixed_size else fun (x, y) -> a.size x + b.size y);
    write =
      (fun buf off (x, y) ->
        let off = a.write buf off x in
        b.write buf off y);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        (x, y));
    leaves =
      (if fixed_leaves >= 0 then const_fn fixed_leaves
       else fun (x, y) -> a.leaves x + b.leaves y);
    fixed_size;
    fixed_leaves;
    flat =
      (match (a.flat, b.flat) with
      | Some fa, Some fb ->
          Some
            {
              f_size = fa.f_size + fb.f_size;
              f_write =
                (fun buf off (x, y) ->
                  fa.f_write buf off x;
                  fb.f_write buf (off + fa.f_size) y);
              f_read =
                (fun buf off ->
                  let x = fa.f_read buf off in
                  let y = fb.f_read buf (off + fa.f_size) in
                  (x, y));
            }
      | _ -> None);
  }

let map ~into ~from c =
  {
    size = (if c.fixed_size >= 0 then const_fn c.fixed_size else fun v -> c.size (from v));
    write = (fun buf off v -> c.write buf off (from v));
    read = (fun cur -> into (c.read cur));
    leaves =
      (if c.fixed_leaves >= 0 then const_fn c.fixed_leaves else fun v -> c.leaves (from v));
    fixed_size = c.fixed_size;
    fixed_leaves = c.fixed_leaves;
    flat =
      (match c.flat with
      | Some f ->
          Some
            {
              f_size = f.f_size;
              f_write = (fun buf off v -> f.f_write buf off (from v));
              f_read = (fun buf off -> into (f.f_read buf off));
            }
      | None -> None);
  }

(* Compact paths read and write the three fields directly; the flat layout
   and the fixed metadata are those of the nested pair. *)
let triple a b c =
  let nested =
    map
      ~into:(fun ((x, y), z) -> (x, y, z))
      ~from:(fun (x, y, z) -> ((x, y), z))
      (pair (pair a b) c)
  in
  {
    nested with
    size =
      (if nested.fixed_size >= 0 then const_fn nested.fixed_size
       else fun (x, y, z) -> a.size x + b.size y + c.size z);
    write =
      (fun buf off (x, y, z) ->
        let off = a.write buf off x in
        let off = b.write buf off y in
        c.write buf off z);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        let z = c.read cur in
        (x, y, z));
    leaves =
      (if nested.fixed_leaves >= 0 then const_fn nested.fixed_leaves
       else fun (x, y, z) -> a.leaves x + b.leaves y + c.leaves z);
  }

(* Per-element sums over a list; an element codec with a fixed size (leaf
   count) makes the sum a multiplication. *)
let sum_sizes elt xs =
  if elt.fixed_size >= 0 then elt.fixed_size * List.length xs
  else
    let rec go acc = function [] -> acc | x :: rest -> go (acc + elt.size x) rest in
    go 0 xs

let sum_leaves elt xs =
  if elt.fixed_leaves >= 0 then elt.fixed_leaves * List.length xs
  else
    let rec go acc = function [] -> acc | x :: rest -> go (acc + elt.leaves x) rest in
    go 0 xs

let rec write_all elt buf off = function
  | [] -> off
  | x :: rest -> write_all elt buf (elt.write buf off x) rest

(* Lists of zero or one element (a heartbeat, a single AppendEntries
   entry) need no reversal. *)
let rev_short = function ([] | [ _ ]) as l -> l | l -> List.rev l

let rec read_to_limit elt cur acc =
  let off = cur.cpos in
  if off >= cur.climit then rev_short acc
  else begin
    let x = elt.read cur in
    if cur.cpos <= off then fail "tail_list: element consumed no bytes";
    read_to_limit elt cur (x :: acc)
  end

(* No count prefix: elements are read until the message limit. Only valid as
   the final field of a message. *)
let tail_list elt =
  {
    size = sum_sizes elt;
    write = write_all elt;
    read = (fun cur -> read_to_limit elt cur []);
    leaves = sum_leaves elt;
    fixed_size = -1;
    fixed_leaves = -1;
    flat = None;
  }

(* Presence encoded by message length: the value is present iff any bytes
   remain before the limit. Only valid as the final field of a message —
   this is how fixed-layout responses omit an optional payload without
   spending a presence byte (the KV response format). *)
let tail_option elt =
  {
    size = (fun v -> match v with None -> 0 | Some x -> elt.size x);
    write = (fun buf off v -> match v with None -> off | Some x -> elt.write buf off x);
    read = (fun cur -> if cur.cpos >= cur.climit then None else Some (elt.read cur));
    leaves = (fun v -> match v with None -> 0 | Some x -> elt.leaves x);
    fixed_size = -1;
    fixed_leaves = -1;
    flat = None;
  }

(* {2 Tagged unions} *)

type ('a, 'b) case_ = {
  c_tag : int;
  c_payload : 'b t;
  c_inj : 'b -> 'a;
  c_proj : 'a -> 'b option;
}

type 'a case = Case : ('a, 'b) case_ -> 'a case

let case ~tag payload ~inj ~proj =
  if tag < 0 || tag > 0xFF then invalid_arg "Codec.case: tag out of u8 range";
  Case { c_tag = tag; c_payload = payload; c_inj = inj; c_proj = proj }

let no_case name = invalid_arg (name ^ ": value matches no case")

(* The walks over the case list are closed functions taking the value as an
   argument, so sizing, writing or reading a variant builds no closure. *)
let rec case_size name v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with Some b -> 1 + c.c_payload.size b | None -> case_size name v rest)

let rec case_leaves name v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with
      | Some b -> 1 + c.c_payload.leaves b
      | None -> case_leaves name v rest)

let rec case_write name buf off v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with
      | Some b -> c.c_payload.write buf (u8.write buf off c.c_tag) b
      | None -> case_write name buf off v rest)

let rec case_read name cur tag = function
  | [] -> fail (Printf.sprintf "%s: unknown tag %d" name tag)
  | Case c :: rest ->
      if c.c_tag = tag then c.c_inj (c.c_payload.read cur) else case_read name cur tag rest

let variant ~name cases =
  if cases = [] then invalid_arg (name ^ ": no cases");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (Case c) ->
      if Hashtbl.mem seen c.c_tag then
        invalid_arg (Printf.sprintf "%s: duplicate tag %d" name c.c_tag);
      Hashtbl.add seen c.c_tag ())
    cases;
  {
    size = (fun v -> case_size name v cases);
    write = (fun buf off v -> case_write name buf off v cases);
    read = (fun cur -> case_read name cur (u8.read cur) cases);
    leaves = (fun v -> case_leaves name v cases);
    fixed_size = -1;
    fixed_leaves = -1;
    flat = None;
  }

(* {2 Sizes and backend entry points} *)

let size c v = if c.fixed_size >= 0 then c.fixed_size else c.size v

let flat_exn c what =
  match c.flat with
  | Some f -> f
  | None -> invalid_arg (what ^ ": codec has no flat layout (unbounded field?)")

let encoded_size ~backend c v =
  match backend with Compact -> size c v | Flat -> (flat_exn c "Codec.encoded_size").f_size

let encoded_leaves ~backend c v =
  if backend = Flat then ignore (flat_exn c "Codec.encoded_leaves");
  if c.fixed_leaves >= 0 then c.fixed_leaves else c.leaves v

let encode ~backend c b off v =
  match backend with
  | Compact -> c.write b off v
  | Flat ->
      let f = flat_exn c "Codec.encode" in
      if off < 0 || off + f.f_size > Bytes.length b then
        invalid_arg "Codec.encode: buffer too small for flat layout";
      f.f_write b off v;
      off + f.f_size

let decode ~backend c b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.decode: range outside buffer";
  match backend with
  | Compact ->
      let cur = { cbuf = b; climit = off + len; cpos = off } in
      let v = c.read cur in
      if cur.cpos <> off + len then
        fail (Printf.sprintf "%d trailing bytes after message" (off + len - cur.cpos));
      v
  | Flat ->
      let f = flat_exn c "Codec.decode" in
      if len <> f.f_size then
        fail (Printf.sprintf "flat message size %d, expected %d" len f.f_size);
      f.f_read b off

let to_bytes c v =
  let b = Bytes.create (size c v) in
  let final = c.write b 0 v in
  assert (final = Bytes.length b);
  b

let of_bytes c b = decode ~backend:Compact c b ~off:0 ~len:(Bytes.length b)
