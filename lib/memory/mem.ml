module Codec = struct
  let get_i8 b off = Char.code (Bytes.get b off)
  let set_i8 b off v = Bytes.set b off (Char.chr (v land 0xff))

  let get_i16 endian b off =
    match (endian : Arch.endian) with
    | Little -> Bytes.get_uint16_le b off
    | Big -> Bytes.get_uint16_be b off

  let set_i16 endian b off v =
    match (endian : Arch.endian) with
    | Little -> Bytes.set_uint16_le b off (v land 0xffff)
    | Big -> Bytes.set_uint16_be b off (v land 0xffff)

  let get_i32 endian b off =
    match (endian : Arch.endian) with
    | Little -> Bytes.get_int32_le b off
    | Big -> Bytes.get_int32_be b off

  let set_i32 endian b off v =
    match (endian : Arch.endian) with
    | Little -> Bytes.set_int32_le b off v
    | Big -> Bytes.set_int32_be b off v

  let get_i64 endian b off =
    match (endian : Arch.endian) with
    | Little -> Bytes.get_int64_le b off
    | Big -> Bytes.get_int64_be b off

  let set_i64 endian b off v =
    match (endian : Arch.endian) with
    | Little -> Bytes.set_int64_le b off v
    | Big -> Bytes.set_int64_be b off v

  let get_f64 endian b off = Int64.float_of_bits (get_i64 endian b off)
  let set_f64 endian b off v = set_i64 endian b off (Int64.bits_of_float v)
  let get_f32 endian b off = Int32.float_of_bits (get_i32 endian b off)
  let set_f32 endian b off v = set_i32 endian b off (Int32.bits_of_float v)

  let get_word (arch : Arch.t) b off =
    match arch.word_size with
    | 4 -> Int32.to_int (get_i32 arch.endian b off) land 0xffffffff
    | 8 -> Int64.to_int (get_i64 arch.endian b off)
    | n -> invalid_arg (Printf.sprintf "Codec.get_word: word size %d" n)

  let check_word (arch : Arch.t) v =
    match arch.word_size with
    | 4 ->
      if v < 0 || v > 0xffffffff then
        invalid_arg (Printf.sprintf "Codec.set_word: 0x%x out of 32-bit range" v)
    | 8 -> ()
    | n -> invalid_arg (Printf.sprintf "Codec.set_word: word size %d" n)

  let set_word (arch : Arch.t) b off v =
    check_word arch v;
    if arch.word_size = 4 then set_i32 arch.endian b off (Int32.of_int v)
    else set_i64 arch.endian b off (Int64.of_int v)
end

let arch m = Address_space.arch (Mmu.space m)

(* Every scalar access hands [Mmu.access] a closed function of the
   space's arch, the bytes holding the value and its offset there. So a
   load or store within one page allocates no closure and no buffer,
   only a boxed result where the type has one. *)
let load m ~addr ~len get = Mmu.access m ~addr ~len Address_space.Read get ()
let store m ~addr ~len set v = Mmu.access m ~addr ~len Address_space.Write set v
let load_i8 m ~addr = load m ~addr ~len:1 (fun _ b off () -> Codec.get_i8 b off)
let store_i8 m ~addr v = store m ~addr ~len:1 (fun _ b off v -> Codec.set_i8 b off v) v

let load_i16 m ~addr =
  load m ~addr ~len:2 (fun a b off () -> Codec.get_i16 a.Arch.endian b off)

let store_i16 m ~addr v =
  store m ~addr ~len:2 (fun a b off v -> Codec.set_i16 a.Arch.endian b off v) v

let load_i32 m ~addr =
  load m ~addr ~len:4 (fun a b off () -> Codec.get_i32 a.Arch.endian b off)

let store_i32 m ~addr v =
  store m ~addr ~len:4 (fun a b off v -> Codec.set_i32 a.Arch.endian b off v) v

let load_i64 m ~addr =
  load m ~addr ~len:8 (fun a b off () -> Codec.get_i64 a.Arch.endian b off)

let store_i64 m ~addr v =
  store m ~addr ~len:8 (fun a b off v -> Codec.set_i64 a.Arch.endian b off v) v

let load_f64 m ~addr =
  load m ~addr ~len:8 (fun a b off () -> Codec.get_f64 a.Arch.endian b off)

let store_f64 m ~addr v =
  store m ~addr ~len:8 (fun a b off v -> Codec.set_f64 a.Arch.endian b off v) v

let load_f32 m ~addr =
  load m ~addr ~len:4 (fun a b off () -> Codec.get_f32 a.Arch.endian b off)

let store_f32 m ~addr v =
  store m ~addr ~len:4 (fun a b off v -> Codec.set_f32 a.Arch.endian b off v) v

let get_word a b off () = Codec.get_word a b off
let load_word m ~addr = load m ~addr ~len:(arch m).Arch.word_size get_word

(* The value is range-checked first, so a bad store fails before any
   fault is serviced. *)
let store_word m ~addr v =
  let a = arch m in
  Codec.check_word a v;
  store m ~addr ~len:a.Arch.word_size Codec.set_word v

let raw_load_word space ~addr =
  Address_space.access space ~addr ~len:(Address_space.arch space).Arch.word_size
    Address_space.Read ~check:false get_word ()

let raw_store_word space ~addr v =
  let a = Address_space.arch space in
  Codec.check_word a v;
  Address_space.access space ~addr ~len:a.Arch.word_size Address_space.Write
    ~check:false Codec.set_word v
