type 'a t = { make : unit -> 'a; mutable items : 'a array; mutable n : int }

let create make = { make; items = [||]; n = 0 }

let take p =
  if p.n = 0 then p.make ()
  else begin
    p.n <- p.n - 1;
    p.items.(p.n)
  end

let release p x =
  if p.n = Array.length p.items then begin
    let grown = Array.make (max 8 (2 * p.n)) x in
    Array.blit p.items 0 grown 0 p.n;
    p.items <- grown
  end;
  p.items.(p.n) <- x;
  p.n <- p.n + 1
