(** Int-keyed hash table for the per-datum paths (pages, heap blocks,
    cache slots, directory rows).

    Keys compare with [Int.equal] instead of the polymorphic equality
    the generic [Hashtbl] calls, and hash with [Hashtbl.hash], so a
    table buckets, grows, resets and folds exactly like a generic
    [(int, _) Hashtbl.t] fed the same operations. Some of these tables'
    fold orders reach frames or the cache layout (see DESIGN.md,
    "Per-datum tables are monomorphic; fold order is wire-visible"):
    do not give this module a "better" hash. *)

include Hashtbl.S with type key = int
