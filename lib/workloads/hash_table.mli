(** Chained hash table in the simulated heap.

    The paper singles this structure out: "the fully lazy method is
    expected to show good performance when a small portion of the large
    data is accessed (for example, retrieval of a hash table)" (section
    4.1). A remote lookup touches one bucket header and one short chain,
    so eager shipment of the whole table is waste. *)

open Srpc_core

(** [register_types cluster] registers ["htable"], a fixed array of 64
    bucket pointers, and ["hnode"], the chain cells
    [{ next; key; value }]. *)
val register_types : Cluster.t -> unit

(** [create node] allocates an empty table in [node]'s heap. *)
val create : Node.t -> Access.ptr

(** [insert node t ~key ~value] prepends to the key's chain (no
    duplicate check — newest binding wins on lookup). *)
val insert : Node.t -> Access.ptr -> key:int -> value:int -> unit

val lookup : Node.t -> Access.ptr -> key:int -> int option

(** [remove node t ~key] unlinks the newest binding and frees its cell;
    returns whether a binding existed. *)
val remove : Node.t -> Access.ptr -> key:int -> bool

val population : Node.t -> Access.ptr -> int
