type body = ..
type body += Empty

type t = {
  mutable src : int;
  mutable dst : int;
  mutable size_bytes : int;
  mutable flow_hash : int;
  mutable body : body;
  mutable sent_at : Sim.Time.t;
  mutable corrupted : bool;
      (* physical-layer bit errors (modeled as a flag; see Erpc.Wire);
         receivers treat it as a checksum mismatch *)
  mutable trace_id : int;
      (* 0 = untraced; otherwise an Obs.Trace.fresh_id stamped by the
         sender so per-layer trace events can be joined per packet *)
  mutable refs : int;
      (* in-flight reference count; [free] runs [release] at zero: a
         pool's recycler, the table's handle return for an interned
         unpooled packet, or nothing *)
  mutable release : t -> unit;
  mutable handle : int;  (* index in a [table], or [no_handle] *)
}

let no_handle = -1

let no_release (_ : t) = ()

(* Placeholder for a free table slot. Never enters the network. *)
let nil =
  {
    src = 0;
    dst = 0;
    size_bytes = 1;
    flow_hash = 0;
    body = Empty;
    sent_at = 0;
    corrupted = false;
    trace_id = 0;
    refs = 0;
    release = no_release;
    handle = no_handle;
  }

let make ~src ~dst ~size_bytes ~flow_hash body =
  assert (size_bytes > 0);
  {
    src;
    dst;
    size_bytes;
    flow_hash;
    body;
    sent_at = Sim.Time.zero;
    corrupted = false;
    trace_id = 0;
    refs = 1;
    release = no_release;
    handle = no_handle;
  }

(* A fresh empty block, physically distinct from [Bytes.empty], so a
   length-only slice cannot be mistaken for a control packet's. *)
let length_only = Bytes.create 0

(* Reset the transit state of a recycled packet. The caller has already
   rewritten [body]'s contents in place. *)
let reinit t ~src ~dst ~size_bytes ~flow_hash =
  assert (size_bytes > 0);
  t.src <- src;
  t.dst <- dst;
  t.size_bytes <- size_bytes;
  t.flow_hash <- flow_hash;
  t.sent_at <- Sim.Time.zero;
  t.corrupted <- false;
  t.trace_id <- 0;
  t.refs <- 1

let retain t = t.refs <- t.refs + 1

let free t =
  if t.refs > 0 then begin
    t.refs <- t.refs - 1;
    if t.refs = 0 then t.release t
  end

(* Handle table. [slots.(h)] is the packet holding handle [h], or [nil];
   free handles form a stack in [free_stack.(0 .. n_free - 1)]. An
   unpooled packet gets [release_handle] as its [release] when interned,
   so its last {!free} hands the handle back; a pooled packet's [release]
   is its pool's, so it keeps its handle for good. *)
type table = {
  mutable slots : t array;
  mutable free_stack : int array;
  mutable n_free : int;
  mutable release_handle : t -> unit;
}

let create_table () =
  let tbl =
    {
      slots = Array.make 64 nil;
      free_stack = Array.init 64 (fun i -> 63 - i);
      n_free = 64;
      release_handle = no_release;
    }
  in
  tbl.release_handle <-
    (fun pkt ->
      let h = pkt.handle in
      tbl.slots.(h) <- nil;
      tbl.free_stack.(tbl.n_free) <- h;
      tbl.n_free <- tbl.n_free + 1;
      pkt.handle <- no_handle;
      pkt.release <- no_release);
  tbl

let grow_table tbl =
  let n = Array.length tbl.slots in
  let slots = Array.make (2 * n) nil in
  Array.blit tbl.slots 0 slots 0 n;
  tbl.slots <- slots;
  let stack = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    stack.(i) <- (2 * n) - 1 - i
  done;
  tbl.free_stack <- stack;
  tbl.n_free <- n

let intern tbl pkt =
  let h = pkt.handle in
  if h >= 0 then begin
    if tbl.slots.(h) != pkt then invalid_arg "Packet.intern: handle from another table";
    h
  end
  else begin
    if tbl.n_free = 0 then grow_table tbl;
    let n = tbl.n_free - 1 in
    tbl.n_free <- n;
    let h = tbl.free_stack.(n) in
    tbl.slots.(h) <- pkt;
    pkt.handle <- h;
    if pkt.release == no_release then pkt.release <- tbl.release_handle;
    h
  end

let get tbl h = tbl.slots.(h)
let live_handles tbl = Array.length tbl.slots - tbl.n_free
let table_capacity tbl = Array.length tbl.slots
