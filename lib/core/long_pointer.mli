(** Long-format pointers.

    "A long pointer is composed of three elements: an address space
    identifier ..., an address valid within the address space, and a
    data type specifier" (paper, section 3.2). Long pointers exist only
    on the wire and in runtime tables; memory always holds swizzled
    ordinary addresses.

    A {e provisional} long pointer (negative address) stands for an
    [extended_malloc] whose home-space allocation is still batched; it is
    rebound to the real address when the batch flushes and never crosses
    the wire. *)

open Srpc_memory

type t = { origin : Space_id.t; addr : int; ty : string }

val make : origin:Space_id.t -> addr:int -> ty:string -> t
val is_provisional : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Wire form: a presence word, a packed space id (site and proc as 16
    bits each), the address, and the type specifier interned to its
    name-server id — 24 bytes, or 4 for the null pointer. Provisional
    pointers are a programming error on the wire (asserted). *)

val encode : reg:Srpc_types.Registry.t -> Srpc_xdr.Xdr.Enc.t -> t option -> unit
val decode : reg:Srpc_types.Registry.t -> Srpc_xdr.Xdr.Dec.t -> t option

(** Keyed by {!hash}. Its fold order is the traveler order of every
    transfer frame, so that hash must not change. *)
module Table : Hashtbl.S with type key = t

(** For tables that are only looked up, never folded or iterated: a
    hash that spreads 8-aligned addresses over all buckets. *)
module Lookup : Hashtbl.S with type key = t
