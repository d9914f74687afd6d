(* The fault trace is now a view over the unified Obs event log: fault
   applications/reversions and harness checkpoints are instants in the
   "faults" category, so a chaos run's fault timeline and its packet-level
   trace share one buffer and one code path. The canonical [to_string]
   rendering (one "<ns> <message>" line per entry) is unchanged, preserving
   the byte-identical-trace determinism contract chaos reruns compare. *)

type t = Obs.Trace.t

(* Large enough that no chaos scenario evicts fault entries; eviction would
   silently break byte-equality between runs of different lengths. *)
let create () = Obs.Trace.create ~capacity:(1 lsl 16) ()

let record t ~at_ns msg =
  Obs.Trace.instant t ~ts:at_ns ~cat:"faults" ~name:msg ~pid:0 ~tid:0 []

let to_string t =
  let buf = Buffer.create 1024 in
  Obs.Trace.iter t (fun e ->
      if e.cat = "faults" then begin
        Buffer.add_string buf (string_of_int e.ts);
        Buffer.add_char buf ' ';
        Buffer.add_string buf e.name;
        Buffer.add_char buf '\n'
      end);
  Buffer.contents buf

