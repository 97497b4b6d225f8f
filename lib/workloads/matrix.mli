(** Block-partitioned matrix: a grid of pointers to large tiles.

    Tiles are 32×32 doubles (8 KiB) — individual data larger than a
    page, so their cache slots span multiple protected pages; the grid
    header is a small array of tile pointers. Remote access patterns
    (one row of tiles vs the whole matrix) exercise partial transfer of
    large objects the way the tree exercises many small ones. *)

open Srpc_core

(** Elements per tile edge (32). *)
val tile_edge : int

(** [register_types cluster] registers ["mtile"], one tile, and
    ["mgrid"], an array of up to 64 tile pointers (8×8 tiles = 256×256
    elements). *)
val register_types : Cluster.t -> unit

(** [create node ~tile_rows ~tile_cols] allocates a zeroed grid of
    [tile_rows × tile_cols] tiles.
    @raise Invalid_argument beyond 64 tiles. *)
val create : Node.t -> tile_rows:int -> tile_cols:int -> Access.ptr

(** Element dimensions (rows, cols). *)
val dims : Node.t -> Access.ptr -> int * int

(** [get]/[set] address elements in row-major element coordinates.
    @raise Invalid_argument out of bounds. *)
val get : Node.t -> Access.ptr -> row:int -> col:int -> float

val set : Node.t -> Access.ptr -> row:int -> col:int -> float -> unit

(** [row_sum node grid ~row] sums one element row (touches one tile
    row). *)
val row_sum : Node.t -> Access.ptr -> row:int -> float

(** [scale node grid k] multiplies every element in place. *)
val scale : Node.t -> Access.ptr -> float -> unit

(** [frobenius node grid] is the sum of squares of all elements. *)
val frobenius : Node.t -> Access.ptr -> float

(** [plan ?op ~hop_bound ()] is the tiled-matrix shape as an offloadable
    traversal plan (grid → every tile via the [tiles] pointer array,
    reading each tile's [elems] block); [op] defaults to
    {!Offload.Op_visit}. *)
val plan : ?op:Offload.op -> hop_bound:int -> unit -> Offload.plan
