exception Decode_error of string

let pad4 n = (4 - (n land 3)) land 3

module Enc = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let clear = Buffer.clear
  let length = Buffer.length
  let int32 t v = Buffer.add_int32_be t v

  (* The int-valued forms convert inside the [Buffer] primitive's
     argument, so no [Int32] or [Int64] is boxed. *)
  let put32 t v = Buffer.add_int32_be t (Int32.of_int v)

  let int t v =
    if v < Int32.(to_int min_int) || v > Int32.(to_int max_int) then
      invalid_arg (Printf.sprintf "Xdr.Enc.int: %d out of 32-bit range" v);
    put32 t v

  let uint32 t v =
    if v < 0 || v > 0xffffffff then
      invalid_arg (Printf.sprintf "Xdr.Enc.uint32: %d out of range" v);
    put32 t v

  let int64 t v = Buffer.add_int64_be t v
  let hyper t v = Buffer.add_int64_be t (Int64.of_int v)
  let bool t v = int t (if v then 1 else 0)
  let float64 t v = int64 t (Int64.bits_of_float v)
  let float32 t v = int32 t (Int32.bits_of_float v)

  let add_padding t n =
    for _ = 1 to pad4 n do
      Buffer.add_char t '\000'
    done

  let opaque t s =
    uint32 t (String.length s);
    Buffer.add_string t s;
    add_padding t (String.length s)

  let opaque_bytes t b = opaque t (Bytes.unsafe_to_string b)
  let string = opaque

  let fixed_opaque t s =
    Buffer.add_string t s;
    add_padding t (String.length s)

  let list t f xs =
    uint32 t (List.length xs);
    List.iter (f t) xs

  let array t f xs =
    uint32 t (Array.length xs);
    Array.iter (f t) xs

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  let to_string = Buffer.contents
end

module Dec = struct
  type t = { input : string; mutable pos : int }

  let of_string input = { input; pos = 0 }
  let remaining t = String.length t.input - t.pos
  let at_end t = remaining t = 0

  let need t n =
    if remaining t < n then
      raise
        (Decode_error
           (Printf.sprintf "truncated input: need %d bytes at offset %d, have %d"
              n t.pos (remaining t)))

  (* As in [Enc], the int-valued forms never box an [Int32] or
     [Int64]. *)
  let int t =
    need t 4;
    let v = Int32.to_int (String.get_int32_be t.input t.pos) in
    t.pos <- t.pos + 4;
    v

  let int32 t = Int32.of_int (int t)
  let uint32 t = int t land 0xffffffff

  let hyper t =
    need t 8;
    let v = Int64.to_int (String.get_int64_be t.input t.pos) in
    t.pos <- t.pos + 8;
    v

  let int64 t =
    need t 8;
    let v = String.get_int64_be t.input t.pos in
    t.pos <- t.pos + 8;
    v

  let bool t =
    match int t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Decode_error (Printf.sprintf "bad bool %d" n))

  let float64 t = Int64.float_of_bits (int64 t)
  let float32 t = Int32.float_of_bits (int32 t)

  let skip_padding t n =
    let p = pad4 n in
    need t p;
    t.pos <- t.pos + p

  let fixed_opaque t n =
    need t n;
    let s = String.sub t.input t.pos n in
    t.pos <- t.pos + n;
    skip_padding t n;
    s

  let opaque t =
    let n = uint32 t in
    fixed_opaque t n

  let string = opaque

  (* List.init/Array.init have unspecified evaluation order; decoding
     must consume the stream strictly left to right. *)
  let list t f =
    let n = uint32 t in
    let rec go acc k = if k = 0 then List.rev acc else go (f t :: acc) (k - 1) in
    go [] n

  let array t f = Array.of_list (list t f)

  let option t f = if bool t then Some (f t) else None

  let check_end t =
    if not (at_end t) then
      raise
        (Decode_error
           (Printf.sprintf "%d trailing bytes at offset %d" (remaining t) t.pos))
end

let roundturn enc dec v =
  let e = Enc.create () in
  enc e v;
  let d = Dec.of_string (Enc.to_string e) in
  let v' = dec d in
  Dec.check_end d;
  v'
