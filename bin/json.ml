(* The JSON value every BENCH_*.json is built as, and its one printer
   (the shape of benchmark/metric.ml's; no parser dependency). *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

(* Writes [j] to [path]. A float prints in the shortest form that reads
   back as the same float, a non-finite one as null. An array of
   containers, or an object nested more than two deep, puts each member
   on its own line; anything flatter stays on one line. *)
let to_file path j =
  let str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  in
  let num f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
  in
  let rec nesting = function
    | Arr xs -> 1 + List.fold_left (fun d x -> max d (nesting x)) 0 xs
    | Obj kvs -> 1 + List.fold_left (fun d (_, x) -> max d (nesting x)) 0 kvs
    | Num _ | Int _ | Str _ | Bool _ -> 0
  in
  let rec show indent j =
    let inner = indent ^ "  " in
    let wrap ~split o c items =
      if split then
        o ^ "\n" ^ inner ^ String.concat (",\n" ^ inner) items ^ "\n" ^ indent ^ c
      else o ^ String.concat ", " items ^ c
    in
    match j with
    | Num f -> num f
    | Int i -> string_of_int i
    | Str s -> str s
    | Bool x -> string_of_bool x
    | Arr xs -> wrap ~split:(nesting j > 1) "[" "]" (List.map (show inner) xs)
    | Obj kvs ->
      wrap ~split:(nesting j > 2) "{" "}"
        (List.map (fun (k, x) -> str k ^ ": " ^ show inner x) kvs)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (show "" j);
      output_char oc '\n')
