type t = Buffer.t

let create () = Buffer.create 1024

let record t ~at_ns msg =
  Buffer.add_string t (string_of_int at_ns);
  Buffer.add_char t ' ';
  Buffer.add_string t msg;
  Buffer.add_char t '\n'

let to_string = Buffer.contents
