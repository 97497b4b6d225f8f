open Srpc_memory
open Srpc_types
module Xdr = Srpc_xdr.Xdr

type encode_ctx = {
  enc_reg : Registry.t;
  enc_arch : Arch.t;
  unswizzle : ty:string -> int -> Long_pointer.t option;
}

type decode_ctx = {
  dec_reg : Registry.t;
  dec_arch : Arch.t;
  swizzle : Long_pointer.t option -> int;
}

(* One scratch encoder serves every datum: an encoding never re-enters
   itself, since unswizzling a pointer encodes nothing. *)
let scratch = Xdr.Enc.create ~initial:1024 ()

let encode ctx ~ty raw =
  let shape = Layout.shape ctx.enc_reg ctx.enc_arch ty in
  let size = shape.Layout.layout.Layout.size in
  if Bytes.length raw <> size then
    invalid_arg
      (Printf.sprintf "Object_codec.encode: %s is %d bytes, got %d" ty size
         (Bytes.length raw));
  let enc = scratch in
  Xdr.Enc.clear enc;
  let endian = ctx.enc_arch.Arch.endian in
  List.iter
    (fun { Layout.leaf_offset = off; kind } ->
      match kind with
      | Layout.Scalar p -> (
        match (p : Type_desc.prim) with
        | I8 -> Xdr.Enc.int enc (Mem.Codec.get_i8 raw off)
        | I16 -> Xdr.Enc.int enc (Mem.Codec.get_i16 endian raw off)
        | I32 -> Xdr.Enc.int32 enc (Mem.Codec.get_i32 endian raw off)
        | I64 -> Xdr.Enc.int64 enc (Mem.Codec.get_i64 endian raw off)
        | F32 -> Xdr.Enc.float32 enc (Mem.Codec.get_f32 endian raw off)
        | F64 -> Xdr.Enc.float64 enc (Mem.Codec.get_f64 endian raw off))
      | Layout.Ptr target ->
        let word = Mem.Codec.get_word ctx.enc_arch raw off in
        let lp = if word = 0 then None else ctx.unswizzle ~ty:target word in
        Long_pointer.encode ~reg:ctx.enc_reg enc lp)
    (Lazy.force shape.Layout.leaves);
  Xdr.Enc.to_string enc

let decode ctx ~ty data =
  let shape = Layout.shape ctx.dec_reg ctx.dec_arch ty in
  let raw = Bytes.make shape.Layout.layout.Layout.size '\000' in
  let dec = Xdr.Dec.of_string data in
  let endian = ctx.dec_arch.Arch.endian in
  List.iter
    (fun { Layout.leaf_offset = off; kind } ->
      match kind with
      | Layout.Scalar p -> (
        match (p : Type_desc.prim) with
        | I8 -> Mem.Codec.set_i8 raw off (Xdr.Dec.int dec)
        | I16 -> Mem.Codec.set_i16 endian raw off (Xdr.Dec.int dec)
        | I32 -> Mem.Codec.set_i32 endian raw off (Xdr.Dec.int32 dec)
        | I64 -> Mem.Codec.set_i64 endian raw off (Xdr.Dec.int64 dec)
        | F32 -> Mem.Codec.set_f32 endian raw off (Xdr.Dec.float32 dec)
        | F64 -> Mem.Codec.set_f64 endian raw off (Xdr.Dec.float64 dec))
      | Layout.Ptr _ ->
        let lp = Long_pointer.decode ~reg:ctx.dec_reg dec in
        Mem.Codec.set_word ctx.dec_arch raw off (ctx.swizzle lp))
    (Lazy.force shape.Layout.leaves);
  Xdr.Dec.check_end dec;
  raw

let scalar_leaf_count reg ~ty =
  (* Leaf structure is arch-independent; any arch will do for counting. *)
  Layout.leaves reg Arch.ilp32_le (Type_desc.Named ty)
  |> List.filter (fun l ->
         match l.Layout.kind with Layout.Scalar _ -> true | Layout.Ptr _ -> false)
  |> List.length
