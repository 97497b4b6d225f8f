(** External Data Representation (RFC 1014 subset).

    The canonical form all transfers pass through, so machines of
    different word sizes and endiannesses interoperate (paper, section 4
    uses Sun's XDR library; this is a from-scratch implementation of the
    pieces the system needs). All quantities are big-endian and padded to
    4-byte units; strings and opaques carry a length word and are padded
    with zeros. *)

exception Decode_error of string

module Enc : sig
  type t

  val create : ?initial:int -> unit -> t

  (** [clear t] empties [t] and keeps its storage, so one encoder can be
      reused for many encodings. *)
  val clear : t -> unit

  (** Current encoded size in bytes. *)
  val length : t -> int

  val int32 : t -> int32 -> unit

  (** [int t v] encodes an OCaml int as an XDR [int] (32-bit); raises
      [Invalid_argument] if out of range. *)
  val int : t -> int -> unit

  val uint32 : t -> int -> unit
  val int64 : t -> int64 -> unit

  (** [hyper t v] encodes an OCaml int as an XDR [hyper] (64-bit). *)
  val hyper : t -> int -> unit

  val bool : t -> bool -> unit
  val float64 : t -> float -> unit
  val float32 : t -> float -> unit

  (** Variable-length opaque: length word + bytes + padding. *)
  val opaque : t -> string -> unit

  val opaque_bytes : t -> bytes -> unit

  (** XDR string (same wire form as opaque). *)
  val string : t -> string -> unit

  (** Fixed-length opaque: bytes + padding, no length word. *)
  val fixed_opaque : t -> string -> unit

  (** [list enc f xs] encodes a counted sequence. *)
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val to_string : t -> string
end

module Dec : sig
  type t

  val of_string : string -> t

  (** Bytes remaining. *)
  val remaining : t -> int

  (** [at_end t] is true when the whole input has been consumed. *)
  val at_end : t -> bool

  val int32 : t -> int32
  val int : t -> int
  val uint32 : t -> int
  val int64 : t -> int64
  val hyper : t -> int
  val bool : t -> bool
  val float64 : t -> float
  val float32 : t -> float
  val opaque : t -> string
  val string : t -> string
  val fixed_opaque : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option

  (** [check_end t] raises {!Decode_error} unless the input is fully
      consumed — catches framing bugs early. *)
  val check_end : t -> unit
end

(** [roundturn enc dec v] encodes [v] then decodes it back (test
    helper). *)
val roundturn : (Enc.t -> 'a -> unit) -> (Dec.t -> 'a) -> 'a -> 'a
