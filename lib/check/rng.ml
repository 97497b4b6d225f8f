type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64 (Steele/Lea/Flood): tiny, full-period, and identical on
   every OCaml version and word size. *)
let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next64 t) Int64.max_int) (Int64.of_int bound))

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.0
