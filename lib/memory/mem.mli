(** Arch-aware typed loads and stores.

    [load_*]/[store_*] are the {e program} path: they go through the MMU,
    so they can fault and be transparently serviced — these are what
    application code (and the typed access layer above it) uses, giving
    the paper's illusion that cached remote data is ordinary local data.
    [raw_*] are the {e system} path used by the runtime itself.

    Pointers in memory occupy the architecture's word size and are read
    and written as OCaml ints ([load_word]/[store_word]). *)

module Codec : sig
  (** Endian-aware primitive codec over byte buffers (offsets in
      bytes). *)

  val get_i8 : bytes -> int -> int
  val set_i8 : bytes -> int -> int -> unit
  val get_i16 : Arch.endian -> bytes -> int -> int
  val set_i16 : Arch.endian -> bytes -> int -> int -> unit
  val get_i32 : Arch.endian -> bytes -> int -> int32
  val set_i32 : Arch.endian -> bytes -> int -> int32 -> unit
  val get_i64 : Arch.endian -> bytes -> int -> int64
  val set_i64 : Arch.endian -> bytes -> int -> int64 -> unit
  val get_f64 : Arch.endian -> bytes -> int -> float
  val set_f64 : Arch.endian -> bytes -> int -> float -> unit
  val get_f32 : Arch.endian -> bytes -> int -> float
  val set_f32 : Arch.endian -> bytes -> int -> float -> unit

  (** [get_word arch b off] reads a pointer-sized unsigned value. *)
  val get_word : Arch.t -> bytes -> int -> int

  val set_word : Arch.t -> bytes -> int -> int -> unit
end

(** Program-path accesses (fault-serviced). *)

val load_i8 : Mmu.t -> addr:int -> int
val store_i8 : Mmu.t -> addr:int -> int -> unit
val load_i16 : Mmu.t -> addr:int -> int
val store_i16 : Mmu.t -> addr:int -> int -> unit
val load_i32 : Mmu.t -> addr:int -> int32
val store_i32 : Mmu.t -> addr:int -> int32 -> unit
val load_i64 : Mmu.t -> addr:int -> int64
val store_i64 : Mmu.t -> addr:int -> int64 -> unit
val load_f64 : Mmu.t -> addr:int -> float
val store_f64 : Mmu.t -> addr:int -> float -> unit
val load_f32 : Mmu.t -> addr:int -> float
val store_f32 : Mmu.t -> addr:int -> float -> unit

(** [load_word m ~addr] reads an ordinary pointer (address) of the
    space's word size. *)
val load_word : Mmu.t -> addr:int -> int

val store_word : Mmu.t -> addr:int -> int -> unit

(** System-path accesses (protection ignored). *)

val raw_load_word : Address_space.t -> addr:int -> int
val raw_store_word : Address_space.t -> addr:int -> int -> unit
