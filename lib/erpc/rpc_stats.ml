type t = {
  mutable rx_pkts : int;
  mutable tx_pkts : int;
  mutable rx_corrupt : int;
  mutable retransmits : int;
  mutable retx_warnings : int;
  mutable session_resets : int;
  mutable issued : int;
  mutable completed : int;
  mutable handled : int;
  mutable wheel_inserts : int;
}

let create () =
  {
    rx_pkts = 0;
    tx_pkts = 0;
    rx_corrupt = 0;
    retransmits = 0;
    retx_warnings = 0;
    session_resets = 0;
    issued = 0;
    completed = 0;
    handled = 0;
    wheel_inserts = 0;
  }

