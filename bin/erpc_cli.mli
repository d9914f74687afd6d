(** The [erpc_sim] command line: every experiment as a registry entry with
    its parameter term. Each entry flag is declared once and gives both its
    Cmdliner term and its key in the envelope's ["params"] (the flag name
    with [-] replaced by [_]); flags that only shape the report ([--trace],
    [--trace-out]) are not recorded. [incast], [rate], [bandwidth] and
    [anatomy] take [--trace-out FILE], which writes the run's event trace
    as Chrome/Perfetto JSON. *)

(** A parsed command line: the run it asks for, and the envelope's
    ["params"]. *)
type parsed = (seed:int64 -> Experiments.Registry.outcome) * (string * Obs.Json.t) list

(** A registry entry and the Cmdliner term that parses its parameters. *)
type entry = Entry of parsed Experiments.Registry.entry * parsed Cmdliner.Term.t

(** Every experiment subcommand of [erpc_sim]. *)
val entries : entry list

(** Parse [Sys.argv], run the chosen subcommand and exit. *)
val main : unit -> unit
