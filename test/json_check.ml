(* The tests' JSON oracle: a strict recursive-descent check that a string
   is one complete, well-formed JSON value (surrounding whitespace
   allowed). It parses nothing into values; the tests use it to check what
   Obs.Json, the Chrome trace exporter and the registry envelopes write. *)

exception Bad

let validate s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c = if !pos < n && s.[!pos] = c then advance () else raise Bad in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let is_digit c = c >= '0' && c <= '9' in
  let expect_digits () =
    match peek () with
    | Some c when is_digit c ->
        while (match peek () with Some c when is_digit c -> true | _ -> false) do
          advance ()
        done
    | _ -> raise Bad
  in
  let parse_literal lit =
    String.iter (fun c -> expect c) lit
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise Bad
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some c
                  when is_digit c
                       || (c >= 'a' && c <= 'f')
                       || (c >= 'A' && c <= 'F') ->
                    advance ()
                | _ -> raise Bad
              done;
              go ()
          | _ -> raise Bad)
      | Some c when Char.code c < 0x20 -> raise Bad
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    (* Integer part: "0" alone, or a nonzero digit followed by more digits —
       JSON forbids leading zeros. *)
    (match peek () with
    | Some '0' -> advance ()
    | Some c when c >= '1' && c <= '9' -> expect_digits ()
    | _ -> raise Bad);
    (match peek () with
    | Some '.' ->
        advance ();
        expect_digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        expect_digits ()
    | _ -> ()
  in
  let rec parse_value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some '}' -> advance ()
        | _ ->
            let rec members () =
              skip_ws ();
              parse_string ();
              skip_ws ();
              expect ':';
              parse_value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> raise Bad
            in
            members ())
    | Some '[' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some ']' -> advance ()
        | _ ->
            let rec items () =
              parse_value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items ()
              | Some ']' -> advance ()
              | _ -> raise Bad
            in
            items ())
    | Some '"' -> parse_string ()
    | Some 't' -> parse_literal "true"
    | Some 'f' -> parse_literal "false"
    | Some 'n' -> parse_literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> raise Bad);
    skip_ws ()
  in
  try
    parse_value ();
    !pos = n
  with Bad -> false
