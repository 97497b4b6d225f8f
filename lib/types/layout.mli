(** Per-architecture memory layout of a descriptor.

    C-style rules: every primitive is aligned to its own size, pointers
    to the architecture's word size, structs to their widest member, and
    struct sizes are rounded up to their alignment. Because pointer
    width differs across architectures, the same record legitimately has
    different sizes on different machines — this is the heterogeneity the
    paper's type-directed transfer handles (and that heterogeneous DSM
    systems cannot, section 5.2).

    A registered name's layout and leaves depend only on the registry
    and the word size, and {!Registry.register} never rebinds a name, so
    they are computed once per (registry, word size, name) and cached in
    the registry: every datum that crosses the wire and every field
    access reads them. *)

open Srpc_memory

type field = { name : string; offset : int; ty : Type_desc.t }

type t = { size : int; align : int; fields : field list }
(** [fields] is non-empty only for struct layouts. *)

(** A scalar leaf of a type: its byte offset and what sits there. The
    leaf sequence of a type has the same length and kind order on every
    architecture (only offsets differ), which is what lets the wire
    format be canonical. *)
type leaf = { leaf_offset : int; kind : leaf_kind }

and leaf_kind = Scalar of Type_desc.prim | Ptr of string

exception Recursive_type of string

(** [of_type reg arch ty] computes the layout.
    @raise Registry.Unknown_type on a dangling [Named].
    @raise Recursive_type if a struct contains itself by value. *)
val of_type : Registry.t -> Arch.t -> Type_desc.t -> t

val sizeof : Registry.t -> Arch.t -> Type_desc.t -> int

(** [sizeof_name reg arch name] is the size of the registered type
    [name]. *)
val sizeof_name : Registry.t -> Arch.t -> string -> int

(** What the per-datum paths read off a registered name at one word
    size, computed once per registry: its layout, its leaves and its
    pointer leaves (both expanded on first use). *)
type shape = {
  layout : t;
  leaves : leaf list Lazy.t;
  pointer_leaves : (int * string) list Lazy.t;
}

(** [shape reg arch name] is [name]'s shape at [arch]'s word size, for a
    path that reads more than one part of it.
    @raise Registry.Unknown_type on an unregistered name. *)
val shape : Registry.t -> Arch.t -> string -> shape

(** [field reg arch ~ty ~field] is a direct struct field of [ty]: its
    name, offset and declared type.
    @raise Not_found if [ty] is not a struct with that field. *)
val field : Registry.t -> Arch.t -> ty:Type_desc.t -> field:string -> field

(** [field_offset reg arch ~ty ~field] is the offset of a direct struct
    field.
    @raise Not_found if [ty] is not a struct with that field. *)
val field_offset : Registry.t -> Arch.t -> ty:Type_desc.t -> field:string -> int

(** [field_type reg ~ty ~field] is a direct struct field's declared
    type. @raise Not_found as above. *)
val field_type : Registry.t -> ty:Type_desc.t -> field:string -> Type_desc.t

(** [leaves reg arch ty] enumerates scalar leaves in declaration order,
    flattening nested structs and arrays. *)
val leaves : Registry.t -> Arch.t -> Type_desc.t -> leaf list

(** [pointer_leaves reg arch ty] is [leaves] restricted to pointers:
    (offset, pointee type name) pairs. *)
val pointer_leaves : Registry.t -> Arch.t -> Type_desc.t -> (int * string) list
