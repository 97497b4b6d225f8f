(** MMU fault dispatch with instruction restart.

    Modern kernels "provide primitives for user-level program control of
    page access to virtual memory and page-fault handling" (paper,
    section 1); this module is that primitive set. A program access that
    trips page protection invokes the registered handler, then the access
    restarts — exactly the hardware trap / handler / retry cycle. The
    handler must resolve the fault (fetch data, change protection); if
    the same access keeps faulting the MMU declares a {!Fault_loop}
    rather than spinning. *)

type t

exception Fault_loop of Address_space.fault

(** Raised by program accesses when no handler is installed and a fault
    occurs (equivalent to an uncaught SIGSEGV). *)
exception Unhandled_fault of Address_space.fault

val create : Address_space.t -> t
val space : t -> Address_space.t

(** [set_handler t h] installs the fault handler. [h] runs with the fault
    description and must either resolve it or raise. *)
val set_handler : t -> (Address_space.fault -> unit) -> unit

val clear_handler : t -> unit

(** Program-path accesses with fault handling and restart. An access
    spanning [n] pages can legitimately fault up to [n] times; more than
    a small multiple of that raises {!Fault_loop}. *)

val read : t -> addr:int -> len:int -> bytes
val write : t -> addr:int -> bytes -> unit

(** [access t ~addr ~len acc f x] is {!Address_space.access} on the
    program path, with the same fault handling and restart: the typed
    loads and stores of {!Mem}. *)
val access :
  t ->
  addr:int ->
  len:int ->
  Address_space.access ->
  (Arch.t -> bytes -> int -> 'a -> 'b) ->
  'a ->
  'b
