(** Page protection, as set through the MMU.

    The paper uses three states: a freshly allocated cache page is fully
    protected ("protected page area", section 3.2); after the data
    transfer it becomes read-only so the first write can be detected for
    the coherency protocol (section 3.4); a dirty page is read-write. *)

type t = No_access | Read_only | Read_write

val allows_read : t -> bool
val allows_write : t -> bool
val equal : t -> t -> bool
val to_string : t -> string
