(** Declarative traversal plans executed at a datum's home.

    The dual of closure shipping: for low-locality pointer chasing the
    cheapest transfer strategy is not moving the bytes at all. A caller
    submits a small, bounded plan — an aggregate op along typed pointer
    fields, the shapes [lib/workloads] implements client-side — and the
    datum's home walks its own heap, returning only the result (plus the
    write set of any updates, for coherency and footprint accounting).
    See docs/OFFLOAD.md. *)

open Srpc_types

(** The aggregate computed over the traversal's value slots (the
    [value_field] occurrences of every visited node, in walk order). *)
type op =
  | Op_sum  (** [\[sum\]] of all slots *)
  | Op_visit  (** [\[visited-node-count; sum\]] *)
  | Op_find of int
      (** [\[index of the first slot equal to the target, or -1\]] *)
  | Op_update of { idx : int; delta : int }
      (** add [delta] to slot [idx]: [\[new value\]], or [\[-1\]] when
          [idx] is out of range (no write happens) *)
  | Op_map of { mul : int; add : int }
      (** every slot [:= mul*v + add]: [\[slot-count; new sum\]] *)

type plan = {
  root_ty : string;  (** registered type of the root datum *)
  hops : string list;
      (** pointer fields followed from each node, in this order; a field
          absent on a node's type contributes nothing *)
  value_field : string;
      (** the numeric field (or array of numerics) read at each node *)
  op : op;
  hop_bound : int;  (** maximum nodes visited; must be positive *)
}

val pp_plan : Format.formatter -> plan -> unit

(** {1 Wire form}

    The encoder is blind; {!validate} runs at decode, so a malformed
    plan is a typed {!Srpc_xdr.Xdr.Decode_error} at the trust boundary,
    never a crash mid-walk. *)

val encode_plan : Srpc_xdr.Xdr.Enc.t -> plan -> unit

(** @raise Srpc_xdr.Xdr.Decode_error on a non-positive or oversized hop
    bound, a duplicated hop field (a declared cycle), or a root type /
    hop field / value field unknown to the reachable type graph. *)
val validate : reg:Registry.t -> plan -> unit

val decode_plan : reg:Registry.t -> Srpc_xdr.Xdr.Dec.t -> plan

(** {1 The walker}

    One interpreter serves both sides. The home runs it over its own
    heap; a client running the plan locally runs the very same code over
    its cache, where loads fault through the MMU and pay the honest
    fetch cost the strategy comparison needs. *)

type mem = {
  w_arch : Srpc_memory.Arch.t;
  w_reg : Registry.t;
  w_load_word : int -> int;  (** program-path pointer load *)
  w_load : Type_desc.prim -> int -> int;
      (** program-path primitive load, int-ified ([int_of_float] for
          floats; both sides truncate identically) *)
  w_store : Type_desc.prim -> int -> int -> unit;
}

type outcome = {
  results : int list;
  visited : int;
  mutated : (int * string) list;
      (** (address, type) of every node whose value slots were written,
          in first-touch order *)
}

(** [run mem plan ~root] walks preorder depth-first from [root]
    (an ordinary local address), following [plan.hops] in declared
    order (array-of-pointer fields element-wise), skipping nulls,
    visiting each address at most once, and stopping at
    [plan.hop_bound] visited nodes. *)
val run : mem -> plan -> root:int -> outcome
