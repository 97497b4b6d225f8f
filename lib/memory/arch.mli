(** Machine architecture descriptors.

    Heterogeneity in the paper means machines differ in word size,
    endianness and record layout; all transfers go through a canonical
    representation (XDR). An [Arch.t] captures what a simulated machine
    needs to know to lay out and access data in its own memory. *)

type endian = Little | Big

type t = {
  name : string;
  word_size : int;  (** pointer size in bytes: 4 or 8 *)
  endian : endian;
}

(** 32-bit little-endian (e.g. i386). *)
val ilp32_le : t

(** 32-bit big-endian (e.g. the paper's SPARC). *)
val sparc32 : t

(** 64-bit little-endian (e.g. x86-64). *)
val lp64_le : t

(** 64-bit big-endian (e.g. SPARC V9). *)
val lp64_be : t

val pp : Format.formatter -> t -> unit
