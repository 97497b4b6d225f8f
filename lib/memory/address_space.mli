(** A simulated virtual address space: demand-materialized pages of bytes
    with per-page protection.

    Two access paths exist, mirroring a real system:
    - the {e program} path ([read]/[write]) checks protection and raises
      {!Page_fault} exactly where hardware would trap;
    - the {e system} path ([read_unchecked]/[write_unchecked]) is the
      runtime/kernel copying data regardless of user-level protection
      (e.g. filling a protected cache page before unprotecting it).

    Accessing an unmapped page is a segmentation violation ({!Segv}) on
    either path: the runtime maps every legitimate page before use, so a
    [Segv] is always a bug in the client, never a recoverable event. *)

type access = Read | Write

type fault = {
  space : Space_id.t;
  addr : int;  (** faulting byte address *)
  page : int;  (** page number containing [addr] *)
  access : access;
}

exception Page_fault of fault
exception Segv of { space : Space_id.t; addr : int; access : access }

type t

(** [create ~id ~arch ()] makes an empty space. [page_size] must be a
    power of two (default 4096). *)
val create : ?page_size:int -> id:Space_id.t -> arch:Arch.t -> unit -> t

val id : t -> Space_id.t
val arch : t -> Arch.t
val page_size : t -> int

(** [page_of_addr t addr] is the page number containing [addr]. *)
val page_of_addr : t -> int -> int

(** [page_base t page] is the first byte address of [page]. *)
val page_base : t -> int -> int

(** [map t ~page ~prot] materializes [page] (zero-filled) with protection
    [prot]; remapping an existing page only changes its protection and
    keeps its contents. *)
val map : t -> page:int -> prot:Prot.t -> unit

(** [unmap t ~page] discards the page and its contents. Unmapping an
    unmapped page is a no-op. The page's frame is kept and handed,
    zero-filled, to the next {!map} of a new page, so a space holds at
    most as many frames as it ever had pages mapped at once. *)
val unmap : t -> page:int -> unit

val is_mapped : t -> page:int -> bool
val protection : t -> page:int -> Prot.t option
val set_protection : t -> page:int -> Prot.t -> unit
val mapped_pages : t -> int list

(** [ensure_mapped t ~addr ~len ~prot] maps every unmapped page
    intersecting [addr, addr+len) with [prot]; already-mapped pages are
    left untouched. *)
val ensure_mapped : t -> addr:int -> len:int -> prot:Prot.t -> unit

(** Program-path access: protection-checked, may raise {!Page_fault} (on
    the first offending page) or {!Segv}. Accesses may span pages. *)

val read : t -> addr:int -> len:int -> bytes
val write : t -> addr:int -> bytes -> unit

(** System-path access: ignores protection; raises {!Segv} on unmapped
    pages. *)

val read_unchecked : t -> addr:int -> len:int -> bytes
val write_unchecked : t -> addr:int -> bytes -> unit

(** [access t ~addr ~len acc ~check f x] is one load ([Read]) or store
    ([Write]), the access every path above is built on: it faults
    exactly as {!read}/{!write} would (or, with [check = false], as
    their unchecked forms), then returns [f (arch t) buf off x] where
    [buf] holds [addr, addr+len) at offset [off]. A range on one page
    is the page's own bytes, read or written in place without
    allocating; a range straddling pages is a copy, which a [Write]
    copies back after [f] returns. *)
val access :
  t ->
  addr:int ->
  len:int ->
  access ->
  check:bool ->
  (Arch.t -> bytes -> int -> 'a -> 'b) ->
  'a ->
  'b

(** [fill_zero_unchecked t ~addr ~len] zeroes a range on the system
    path. *)
val fill_zero_unchecked : t -> addr:int -> len:int -> unit

val pp_fault : Format.formatter -> fault -> unit
