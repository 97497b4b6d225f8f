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

(* The encoder reads the object at [base] in [raw]: a buffer of its
   own, or its page frame in place. The decoder writes a buffer of its
   own from offset 0. *)
let rec encode_leaves ctx raw base = function
  | [] -> ()
  | { Layout.leaf_offset; kind } :: rest ->
    let off = base + leaf_offset and endian = ctx.enc_arch.Arch.endian in
    (match kind with
    | Layout.Scalar p -> (
      match (p : Type_desc.prim) with
      | I8 -> Xdr.Enc.int scratch (Mem.Codec.get_i8 raw off)
      | I16 -> Xdr.Enc.int scratch (Mem.Codec.get_i16 endian raw off)
      | I32 -> Xdr.Enc.int32 scratch (Mem.Codec.get_i32 endian raw off)
      | I64 -> Xdr.Enc.int64 scratch (Mem.Codec.get_i64 endian raw off)
      | F32 -> Xdr.Enc.float32 scratch (Mem.Codec.get_f32 endian raw off)
      | F64 -> Xdr.Enc.float64 scratch (Mem.Codec.get_f64 endian raw off))
    | Layout.Ptr target ->
      let word = Mem.Codec.get_word ctx.enc_arch raw off in
      let lp = if word = 0 then None else ctx.unswizzle ~ty:target word in
      Long_pointer.encode ~reg:ctx.enc_reg scratch lp);
    encode_leaves ctx raw base rest

let rec decode_leaves ctx dec raw = function
  | [] -> ()
  | { Layout.leaf_offset = off; kind } :: rest ->
    let endian = ctx.dec_arch.Arch.endian in
    (match kind with
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
      Mem.Codec.set_word ctx.dec_arch raw off (ctx.swizzle lp));
    decode_leaves ctx dec raw rest

let encode_in _ raw base (ctx, leaves) =
  Xdr.Enc.clear scratch;
  encode_leaves ctx raw base leaves;
  Xdr.Enc.to_string scratch

(* Padding is zero after a decode, as in a fresh image. *)
let decode_into ctx data raw size leaves =
  Bytes.fill raw 0 size '\000';
  let dec = Xdr.Dec.of_string data in
  decode_leaves ctx dec raw leaves;
  Xdr.Dec.check_end dec

(* A datum is decoded whole before its destination changes, so an item
   that fails to decode leaves the datum as it was. One staging buffer
   serves every datum: a decoding never re-enters itself, since
   swizzling a pointer decodes nothing. *)
let staging = ref (Bytes.create 1024)

let blit_staged _ raw base size = Bytes.blit !staging 0 raw base size

let encode ctx ~ty raw =
  let shape = Layout.shape ctx.enc_reg ctx.enc_arch ty in
  let size = shape.Layout.layout.Layout.size in
  if Bytes.length raw <> size then
    invalid_arg
      (Printf.sprintf "Object_codec.encode: %s is %d bytes, got %d" ty size
         (Bytes.length raw));
  encode_in () raw 0 (ctx, Lazy.force shape.Layout.leaves)

let encode_at ctx ~ty space ~addr =
  let shape = Layout.shape ctx.enc_reg ctx.enc_arch ty in
  Address_space.access space ~addr ~len:shape.Layout.layout.Layout.size
    Address_space.Read ~check:false encode_in
    (ctx, Lazy.force shape.Layout.leaves)

let decode ctx ~ty data =
  let shape = Layout.shape ctx.dec_reg ctx.dec_arch ty in
  let size = shape.Layout.layout.Layout.size in
  let raw = Bytes.create size in
  decode_into ctx data raw size (Lazy.force shape.Layout.leaves);
  raw

let decode_at ctx ~ty data space ~addr =
  let shape = Layout.shape ctx.dec_reg ctx.dec_arch ty in
  let size = shape.Layout.layout.Layout.size in
  if Bytes.length !staging < size then staging := Bytes.create size;
  decode_into ctx data !staging size (Lazy.force shape.Layout.leaves);
  Address_space.access space ~addr ~len:size Address_space.Write ~check:false
    blit_staged size

let scalar_leaf_count reg ~ty =
  (* Leaf structure is arch-independent; any arch will do for counting. *)
  Layout.leaves reg Arch.ilp32_le (Type_desc.Named ty)
  |> List.filter (fun l ->
         match l.Layout.kind with Layout.Scalar _ -> true | Layout.Ptr _ -> false)
  |> List.length
