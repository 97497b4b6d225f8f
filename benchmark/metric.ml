(* Named measurements, the statistics the runner reports, host clocks,
   and a minimal JSON writer (the benchmark stays free of parser
   dependencies, like the rest of the repository). *)

type t = { name : string; value : float; unit : string }

let v name value = { name; value; unit = Catalog.unit name }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile over an ascending array: the rule
   [Srpc_traffic.Traffic] and [Srpc_traffic.Soak] use for their own
   latency percentiles, so every workload reads its tail the same way. *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_of_list xs in
  match Array.length a with
  | 0 -> 0.0
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- host clocks --- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Process CPU seconds (user + system). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6

(* --- JSON --- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec write b = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Printf.bprintf b "%.1f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Printf.bprintf b "%d" i
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "\"%s\": " (escape k);
        write b x)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write b j;
  Buffer.contents b

let metrics_json ms =
  Obj (List.map (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit) ])) ms)
