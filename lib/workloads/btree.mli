(** An order-4 B-tree in the simulated heap — an application-scale
    pointer structure: remote point lookups touch a root-to-leaf path
    (lazy-friendly), range scans touch subtrees, and inserts performed
    by a remote worker exercise [extended_malloc] (new nodes homed at
    the tree's owner) plus the coherency protocol (splits rewrite parent
    nodes in place). *)

open Srpc_core

val register_types : Cluster.t -> unit

(** [create node] allocates an empty tree and returns its handle (a
    one-cell root pointer holder, so splits can replace the root while
    callers keep a stable handle). The handle's type is ["broot"]. *)
val create : Node.t -> Access.ptr

(** [insert node tree ~key ~value] inserts or overwrites. New nodes are
    allocated with [extended_malloc] homed at the tree handle's origin
    space, so a remote worker grows the owner's tree. *)
val insert : Node.t -> Access.ptr -> key:int -> value:int -> unit

val search : Node.t -> Access.ptr -> key:int -> int option

(** [range_count node tree ~lo ~hi] counts keys in [lo, hi]
    (inclusive). *)
val range_count : Node.t -> Access.ptr -> lo:int -> hi:int -> int

(** [to_list node tree] is all (key, value) bindings in key order. *)
val to_list : Node.t -> Access.ptr -> (int * int) list

val cardinal : Node.t -> Access.ptr -> int

(** [check_invariants node tree] verifies key ordering, node occupancy
    and uniform leaf depth; [Error] describes the violation. *)
val check_invariants : Node.t -> Access.ptr -> (unit, string) result
