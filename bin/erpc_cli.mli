(** The [erpc_sim] command line: every experiment as a registry entry with
    its parameter term, and the [trace] exporter. *)

(** A registry entry and the Cmdliner term that parses its parameters. *)
type entry = Entry : 'p Experiments.Registry.entry * 'p Cmdliner.Term.t -> entry

(** Every experiment subcommand of [erpc_sim]. *)
val entries : entry list

(** Parse [Sys.argv], run the chosen subcommand and exit. *)
val main : unit -> unit
