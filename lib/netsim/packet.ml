type body = ..
type body += Empty

type t = {
  mutable src : int;
  mutable dst : int;
  mutable size_bytes : int;
  mutable flow_hash : int;
  mutable body : body;
  mutable sent_at : Sim.Time.t;
  mutable ecn : bool;
  mutable corrupted : bool;
      (* physical-layer bit errors (modeled as a flag; see Erpc.Wire);
         receivers treat it as a checksum mismatch *)
  mutable trace_id : int;
      (* 0 = untraced; otherwise an Obs.Trace.fresh_id stamped by the
         sender so per-layer trace events can be joined per packet *)
  mutable refs : int;
      (* in-flight reference count; [free] recycles at zero. Unpooled
         packets have a no-op [release], so [free] is harmless on them. *)
  mutable release : t -> unit;
  mutable pool_next : t;  (* intrusive free-list link, [nil]-terminated *)
}

let no_release (_ : t) = ()

let rec nil =
  {
    src = 0;
    dst = 0;
    size_bytes = 1;
    flow_hash = 0;
    body = Empty;
    sent_at = 0;
    ecn = false;
    corrupted = false;
    trace_id = 0;
    refs = 0;
    release = no_release;
    pool_next = nil;
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
    ecn = false;
    corrupted = false;
    trace_id = 0;
    refs = 1;
    release = no_release;
    pool_next = nil;
  }

(* Reset the transit state of a recycled packet. The caller has already
   rewritten [body]'s contents in place. *)
let reinit t ~src ~dst ~size_bytes ~flow_hash =
  assert (size_bytes > 0);
  t.src <- src;
  t.dst <- dst;
  t.size_bytes <- size_bytes;
  t.flow_hash <- flow_hash;
  t.sent_at <- Sim.Time.zero;
  t.ecn <- false;
  t.corrupted <- false;
  t.trace_id <- 0;
  t.refs <- 1

let retain t = t.refs <- t.refs + 1

let free t =
  if t.refs > 0 then begin
    t.refs <- t.refs - 1;
    if t.refs = 0 then t.release t
  end
