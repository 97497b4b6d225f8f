(** Type-directed canonical encoding of in-memory objects.

    Transfers "must be encoded and decoded to preserve their data types
    in a heterogeneous environment. We can use the standard methods
    except for the case of pointers, which must be unswizzled and
    swizzled" (paper, section 3.2). The encoder walks the object's
    scalar leaves in declaration order, converting each primitive to XDR
    and each pointer word through the caller-supplied unswizzler; the
    decoder does the reverse for the destination architecture, swizzling
    pointers into local cache addresses (which may allocate fresh
    protected slots). *)

open Srpc_memory
open Srpc_types

type encode_ctx = {
  enc_reg : Registry.t;
  enc_arch : Arch.t;
  unswizzle : ty:string -> int -> Long_pointer.t option;
      (** ordinary pointer word → long pointer; [None] for null *)
}

type decode_ctx = {
  dec_reg : Registry.t;
  dec_arch : Arch.t;
  swizzle : Long_pointer.t option -> int;
      (** long pointer → ordinary pointer word; null → 0 *)
}

(** [encode ctx ~ty raw] converts the in-memory image [raw] of an object
    of registered type [ty] to its canonical form. [raw] must be exactly
    the type's size on [ctx.enc_arch]. *)
val encode : encode_ctx -> ty:string -> bytes -> string

(** [decode ctx ~ty data] converts canonical [data] back to an in-memory
    image for [ctx.dec_arch]. *)
val decode : decode_ctx -> ty:string -> string -> bytes

(** [encode_at ctx ~ty space ~addr] is [encode ctx ~ty] of the object at
    [addr] in [space], read where it lies (system path). *)
val encode_at : encode_ctx -> ty:string -> Address_space.t -> addr:int -> string

(** [decode_at ctx ~ty data space ~addr] writes what [decode ctx ~ty
    data] would return to the object at [addr] in [space] (system path),
    through a staging buffer it reuses. When [data] fails to decode, the
    object's bytes are left as they were. *)
val decode_at :
  decode_ctx -> ty:string -> string -> Address_space.t -> addr:int -> unit

(** [wire_size reg ~ty] is the canonical encoding's size upper bound for
    scalars (pointers are variable-width); exposed for tests. *)
val scalar_leaf_count : Registry.t -> ty:string -> int
