(* Ring-buffered, sim-time-stamped event trace with a Chrome-trace/Perfetto
   JSON exporter.

   Determinism contract: every recorded field derives from simulation state
   (sim-time timestamps, host ids, sequence numbers), never from wall-clock
   or allocation addresses, so two same-seed runs emit byte-identical
   traces. Hooks are observe-only — recording an event must not schedule
   work or perturb the engine's event order.

   Zero-cost-when-disabled: the shared [disabled] trace has capacity 0 and
   [enabled] is a single field read, so hot-path call sites guard with
   [if Trace.enabled tr then ...] and pay one load+branch when tracing is
   off. *)

type arg = I of int | F of float | S of string

type phase =
  | Instant
  | Complete of int  (** duration in ns *)
  | Counter

type ev = {
  ts : int;  (** sim-time, ns *)
  phase : phase;
  cat : string;
  name : string;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

type t = {
  capacity : int;
  buf : ev array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable procs : (int * string) list;  (* insertion order *)
  mutable tracks : (int * int * string) list;  (* pid, tid, name; in order *)
  mutable next_tid : (int * int) list;  (* per-pid tid allocator *)
  mutable settlers : (unit -> unit) list;  (* newest first *)
}

let dummy_ev =
  { ts = 0; phase = Instant; cat = ""; name = ""; pid = 0; tid = 0; args = [] }

let create ?(capacity = 1 lsl 20) () =
  {
    capacity;
    buf = (if capacity = 0 then [||] else Array.make capacity dummy_ev);
    head = 0;
    len = 0;
    dropped = 0;
    next_id = 0;
    procs = [];
    tracks = [];
    next_tid = [];
    settlers = [];
  }

(* The one trace every engine starts with; recording into it is a no-op. *)
let disabled = create ~capacity:0 ()
let enabled t = t.capacity > 0
let length t = t.len
let dropped t = t.dropped

(* Stable per-trace id source, used to stamp packets so NIC/switch/port
   events can be joined back to the protocol-level packet description.
   A no-op 0 on [disabled]: that trace is shared (including across
   domains under Par_sweep), so it must never be mutated. *)
let fresh_id t =
  if t.capacity = 0 then 0
  else begin
    t.next_id <- t.next_id + 1;
    t.next_id
  end

(* Conventional pid layout: the network fabric is process 0, host [h] is
   process [h + 1]. *)
let net_pid = 0
let host_pid h = h + 1

let record t e =
  if t.capacity > 0 then begin
    t.buf.(t.head) <- e;
    t.head <- (t.head + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1
    else t.dropped <- t.dropped + 1
  end

let instant t ~ts ~cat ~name ~pid ~tid args =
  record t { ts; phase = Instant; cat; name; pid; tid; args }

let complete t ~ts ~dur ~cat ~name ~pid ~tid args =
  record t { ts; phase = Complete dur; cat; name; pid; tid; args }

let counter t ~ts ~cat ~name ~pid args =
  record t { ts; phase = Counter; cat; name; pid; tid = 0; args }

(* Registration is a no-op on a disabled trace: [disabled] is a shared
   value, so it must never accumulate state. *)
let register_process t ~pid name =
  if t.capacity > 0 && not (List.mem (pid, name) t.procs) then
    t.procs <-
      (match List.assoc_opt pid t.procs with
      | Some _ ->
          List.map (fun (p, n) -> if p = pid then (p, name) else (p, n)) t.procs
      | None -> t.procs @ [ (pid, name) ])

let register_track t ~pid name =
  if t.capacity = 0 then 0
  else begin
    let tid =
      match List.assoc_opt pid t.next_tid with Some n -> n | None -> 1
    in
    t.next_tid <- (pid, tid + 1) :: List.remove_assoc pid t.next_tid;
    t.tracks <- t.tracks @ [ (pid, tid, name) ];
    tid
  end

let on_read t f = if t.capacity > 0 then t.settlers <- f :: t.settlers
let settle t = List.iter (fun f -> f ()) (List.rev t.settlers)

let events t =
  settle t;
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let idx = (t.head - t.len + i + (2 * t.capacity)) mod t.capacity in
    out := t.buf.(idx) :: !out
  done;
  !out

let iter t f =
  settle t;
  for i = 0 to t.len - 1 do
    let idx = (t.head - t.len + i + (2 * t.capacity)) mod t.capacity in
    f t.buf.(idx)
  done

(* {2 Digest}

   FNV-1a 64 folded over a compact rendering of every retained event. Far
   cheaper than [Digest.string (to_chrome_string t)] on big rings: no
   mega-string, one small reused buffer. *)

let digest t =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  let mix_char c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L
  in
  let mix_string s = String.iter mix_char s in
  let mix_int n =
    mix_string (string_of_int n);
    mix_char '|'
  in
  let buf = Buffer.create 64 in
  settle t;
  mix_int t.dropped;
  iter t (fun e ->
      mix_int e.ts;
      (match e.phase with
      | Instant -> mix_char 'I'
      | Complete d ->
          mix_char 'X';
          mix_int d
      | Counter -> mix_char 'C');
      mix_string e.cat;
      mix_char '|';
      mix_string e.name;
      mix_char '|';
      mix_int e.pid;
      mix_int e.tid;
      List.iter
        (fun (k, v) ->
          mix_string k;
          mix_char '=';
          Buffer.clear buf;
          (match v with
          | I n -> Buffer.add_string buf (string_of_int n)
          | F f -> Buffer.add_string buf (Json.float_repr f)
          | S s -> Buffer.add_string buf s);
          mix_string (Buffer.contents buf);
          mix_char '|')
        e.args);
  Printf.sprintf "%016Lx" !h

(* {2 Chrome-trace JSON export}

   Timestamps in the Chrome trace format are microseconds; we emit them as
   fixed-point "<us>.<ns%1000>" strings-of-numbers so nanosecond resolution
   survives and the rendering is deterministic (no float formatting). *)

let add_us buf ns = Buffer.add_string buf (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Json.escape_to buf k;
      Buffer.add_string buf "\":";
      match v with
      | I n -> Buffer.add_string buf (string_of_int n)
      | F f -> Buffer.add_string buf (Json.float_repr f)
      | S s ->
          Buffer.add_char buf '"';
          Json.escape_to buf s;
          Buffer.add_char buf '"')
    args;
  Buffer.add_char buf '}'

let add_meta buf ~first ~name ~pid ~tid ~value =
  if not first then Buffer.add_string buf ",\n";
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\""
       name pid tid);
  Json.escape_to buf value;
  Buffer.add_string buf "\"}}"

let add_ev buf e =
  Buffer.add_string buf "{\"name\":\"";
  Json.escape_to buf e.name;
  Buffer.add_string buf "\",\"cat\":\"";
  Json.escape_to buf e.cat;
  Buffer.add_string buf "\",\"ph\":\"";
  (match e.phase with
  | Instant -> Buffer.add_char buf 'i'
  | Complete _ -> Buffer.add_char buf 'X'
  | Counter -> Buffer.add_char buf 'C');
  Buffer.add_string buf "\",\"ts\":";
  add_us buf e.ts;
  (match e.phase with
  | Complete dur ->
      Buffer.add_string buf ",\"dur\":";
      add_us buf dur
  | Instant -> Buffer.add_string buf ",\"s\":\"t\""
  | Counter -> ());
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.pid e.tid);
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    add_args buf e.args
  end;
  Buffer.add_char buf '}'

let to_chrome_string t =
  let buf = Buffer.create (4096 + (t.len * 96)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun (pid, name) ->
      add_meta buf ~first:!first ~name:"process_name" ~pid ~tid:0 ~value:name;
      first := false)
    t.procs;
  List.iter
    (fun (pid, tid, name) ->
      add_meta buf ~first:!first ~name:"thread_name" ~pid ~tid ~value:name;
      first := false)
    t.tracks;
  iter t (fun e ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      add_ev buf e);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome_file t path =
  let oc = open_out path in
  output_string oc (to_chrome_string t);
  close_out oc
