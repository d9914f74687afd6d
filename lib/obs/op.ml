type result = Pending | Ok_ | Miss | Failed

type t = {
  mutable id : int;
  mutable source : int;
  mutable kind : int;
  mutable issued_ns : int;
  mutable done_ns : int;
  mutable result : result;
  mutable connect_waits : int;
  mutable redirects : int;
  mutable election_backoffs : int;
  mutable error_backoffs : int;
}

let create ~id ~source ~issued_ns =
  {
    id;
    source;
    kind = 0;
    issued_ns;
    done_ns = 0;
    result = Pending;
    connect_waits = 0;
    redirects = 0;
    election_backoffs = 0;
    error_backoffs = 0;
  }

let reset t ~id ~source ~issued_ns =
  t.id <- id;
  t.source <- source;
  t.kind <- 0;
  t.issued_ns <- issued_ns;
  t.done_ns <- 0;
  t.result <- Pending;
  t.connect_waits <- 0;
  t.redirects <- 0;
  t.election_backoffs <- 0;
  t.error_backoffs <- 0

let phase_names = [| "connect_wait"; "redirect"; "election"; "error" |]
