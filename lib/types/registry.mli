(** Type-specifier database — the paper's "database that serves as a
    network name server" (section 3.2).

    In the simulated world every site queries the same registry instance,
    which is exactly the paper's shared name-server assumption ("the
    proposed method ... shares only the logical type of the shared
    data"). *)

type t

exception Unknown_type of string
exception Duplicate_type of string

val create : unit -> t

(** [register t name desc] binds [name]. Re-registering the same
    descriptor is idempotent; a different descriptor raises
    {!Duplicate_type}. *)
val register : t -> string -> Type_desc.t -> unit

val find : t -> string -> Type_desc.t
val find_opt : t -> string -> Type_desc.t option
val mem : t -> string -> bool
val names : t -> string list

(** The name server also interns type names as dense numeric ids so that
    wire frames carry a 4-byte specifier instead of a string. Ids are
    assigned in registration order, which is consistent system-wide
    because the registry is shared (it {e is} the name server).

    @raise Unknown_type on unregistered names/ids. *)

val id_of_name : t -> string -> int

val name_of_id : t -> int -> string

(** [resolve t desc] chases [Named] indirections until a structural
    descriptor remains.
    @raise Unknown_type on a dangling name. *)
val resolve : t -> Type_desc.t -> Type_desc.t

(** A string-keyed table. *)
module Names : Hashtbl.S with type key = string

(** Values derived from a registered name, such as its layout at one
    word size ({!Layout}), cached with the registry: [derived t
    ~word_size] holds them by name for that word size. {!register}
    never rebinds a name, so a derived value stays valid for the
    registry's lifetime. A module that derives one adds its own
    constructor. *)
type derived = ..

val derived : t -> word_size:int -> derived Names.t
