(* Minimal JSON: a builder for deterministic machine-readable output and a
   validating parser (used by tests and the `erpc_sim trace` smoke check).
   No external dependency — the values we emit are numbers, short strings
   and flat objects, so a few hundred lines of stdlib suffice. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Floats print via %.6g: enough precision for rates and microseconds,
   deterministic for a given value, and always a valid JSON number (%.6g
   never produces "nan"/"inf" for the finite values we emit). *)
let float_repr f =
  let s = Printf.sprintf "%.6g" f in
  (* "%.6g" may yield "1e+06" — valid JSON — but also bare "inf"/"nan" for
     non-finite values; clamp those to null-ish zero rather than emit
     invalid JSON. *)
  if Float.is_finite f then s else "0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* {2 Validation} *)

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
