(** Data-type specifiers.

    A long pointer carries "a data type specifier that specifies the type
    of the data referenced by this pointer" (paper, section 3.2). Type
    specifiers are names resolved through the {!Registry} (the paper's
    network name server database); a descriptor tells the runtime the
    memory layout on each architecture and where the embedded pointers
    are, which drives type-directed marshaling. *)

type prim = I8 | I16 | I32 | I64 | F32 | F64

type t =
  | Prim of prim
  | Pointer of string
      (** typed pointer; the string is the pointee's registered name *)
  | Array of t * int  (** fixed-length array *)
  | Struct of (string * t) list  (** C-style record: field name, type *)
  | Named of string  (** reference to a registered descriptor *)

val prim_size : prim -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Common shorthands. *)

val i8 : t
val i16 : t
val i32 : t
val i64 : t
val f32 : t
val f64 : t
val ptr : string -> t
