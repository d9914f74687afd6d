type cell = { key : string; mutable value : string; mutable next : cell option }

type t = {
  mutable table : cell option array;
  mutable mask : int;
  mutable count : int;
}

(* FNV-1a, truncated to OCaml's 63-bit int. *)
let fnv1a (s : string) =
  let h = ref 0x2bf29ce484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code s.[i]) * 0x100000001b3
  done;
  !h land max_int

(* Buckets of a new store; a power of two. *)
let initial_buckets = 64

let create () = { table = Array.make initial_buckets None; mask = initial_buckets - 1; count = 0 }

let rec find_cell cell key =
  match cell with
  | None -> None
  | Some c -> if String.equal c.key key then Some c else find_cell c.next key

let grow t =
  let old = t.table in
  let cap = 2 * Array.length old in
  t.table <- Array.make cap None;
  t.mask <- cap - 1;
  Array.iter
    (fun chain ->
      let rec reinsert = function
        | None -> ()
        | Some c ->
            let next = c.next in
            let idx = fnv1a c.key land t.mask in
            c.next <- t.table.(idx);
            t.table.(idx) <- Some c;
            reinsert next
      in
      reinsert chain)
    old

let put t ~key ~value =
  let idx = fnv1a key land t.mask in
  match find_cell t.table.(idx) key with
  | Some c -> c.value <- value
  | None ->
      t.table.(idx) <- Some { key; value; next = t.table.(idx) };
      t.count <- t.count + 1;
      if t.count > Array.length t.table then grow t

let get t ~key =
  let idx = fnv1a key land t.mask in
  match find_cell t.table.(idx) key with Some c -> Some c.value | None -> None

let size t = t.count
let buckets t = Array.length t.table

let lookup_cost_ns = 60
let insert_cost_ns = 80
