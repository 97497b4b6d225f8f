(** Random directed graphs with cycles — stress for the closure engine
    (visited sets, shared substructure) beyond the paper's tree
    subject. *)

open Srpc_core

val register_types : Cluster.t -> unit

(** [edges ~nodes ~seed] is the pure edge relation [build] materializes:
    [edges.(i)] lists the [(out_slot, target_vertex)] pairs of vertex
    [i], in slot order, drawn from the same PRNG stream as [build] —
    the reference model the srpc-check oracle walks without touching a
    node. *)
val edges : nodes:int -> seed:int -> (int * int) list array

(** [build node ~nodes ~seed] creates [nodes] vertices whose edges are
    chosen by a deterministic PRNG seeded with [seed] (self-loops and
    shared targets allowed); returns vertex 0. Every vertex is reachable
    from the root (vertex [i] always has an edge to vertex [i+1] while
    one exists). *)
val build : Node.t -> nodes:int -> seed:int -> Access.ptr

(** [reachable_sum node root] walks the graph from [root] (cycle-safe)
    and returns (vertices seen, payload sum). *)
val reachable_sum : Node.t -> Access.ptr -> int * int

(** [plan ?op ~hop_bound ()] is the graph shape as an offloadable
    traversal plan (element-wise over the [out] array, reading
    [payload]; the walker's seen-set makes cycles safe); [op] defaults
    to {!Offload.Op_sum}. *)
val plan : ?op:Offload.op -> hop_bound:int -> unit -> Offload.plan
