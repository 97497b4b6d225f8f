(** Transfer-strategy configuration.

    The paper's three compared methods are configurations of one
    mechanism (sections 2, 3.3 and 4.2): the closure-size parameter set
    to zero behaves like the fully lazy method, set to infinity like the
    fully eager method. The remaining knobs are the design alternatives
    the paper discusses: cache-area allocation grouping (section 6),
    closure traversal order (section 3.3), write-back granularity
    (section 3.4) and remote alloc/release batching (section 3.5). *)

type closure_budget =
  | Unbounded  (** ship the whole transitive closure: fully eager *)
  | Bytes of int
      (** maximum bytes of traversed data per transfer; [Bytes 0] is the
          fully lazy method *)

type alloc_grouping =
  | By_origin
      (** paper heuristic: all data in a cache page comes from a single
          address space *)
  | Sequential  (** naive: one fill cursor for everything *)
  | By_type  (** group cache pages by data type *)
  | Entry_per_page
      (** one datum per page: makes each first touch exactly one
          callback (used to realize the fully lazy baseline) *)

type closure_order = Breadth_first | Depth_first

(** What the admission controller does with a session whose static
    footprint conflicts with a session already open (only consulted when
    concurrent admission is enabled, see [Srpc_core.Admission]). *)
type admission_policy =
  | Queue_conflicts
      (** FIFO-queue the session on the contended datum roots; it is
          admitted when the conflicting holders close *)
  | Abort_retry
      (** deny admission outright; the caller backs off (capped
          exponential, virtual time) and retries *)

(** The third per-call-site transfer mode (beside eager closure and lazy
    faulting): ship the traversal to the data instead of the data to the
    traversal (see docs/OFFLOAD.md). Consulted by [Node.offload]. *)
type offload_mode =
  | Offload_never
      (** run traversal plans client-side over the cache; wire behavior
          is byte-identical to the pre-offload runtime *)
  | Offload_auto
      (** let the adaptive policy engine pick offload vs local per root
          type from measured outcomes (no engine: offload when the root
          is foreign) *)
  | Offload_always  (** always offload plans whose root is foreign *)

type writeback_grain =
  | Page_grain
      (** ship every datum on a dirty page (paper: "dirtiness can be
          detected by page-grain") *)
  | Twin_diff
      (** keep a pristine twin of a page at first write and ship only
          data that actually changed, at extra CPU cost *)

type t = {
  budget : closure_budget;
  grouping : alloc_grouping;
  order : closure_order;
  grain : writeback_grain;
  batch_remote_ops : bool;
      (** batch [extended_malloc]/[extended_free] requests until the next
          control transfer (paper section 3.5); [false] issues one
          message per primitive *)
  delta_coherency : bool;
      (** ship only changed byte ranges of a modified datum back to its
          home ([Wb_delta]), maintain a per-home copy directory and send
          session-end invalidation only to spaces that actually cached
          data (see docs/DELTA.md); [false] reproduces the paper's
          full-item write-back + cluster-wide invalidation multicast,
          byte-identical on the wire to the pre-delta runtime *)
  offload : offload_mode;
      (** traversal-offloading mode (default [Offload_never], which
          leaves the wire byte-identical to the pre-offload runtime) *)
}

(** The proposed method; [closure_size] in bytes defaults to the paper's
    8192. [delta] turns on delta coherency (default off); [offload]
    picks the traversal-offloading mode (default [Offload_never]). *)
val smart :
  ?closure_size:int -> ?delta:bool -> ?offload:offload_mode -> unit -> t

(** Whole closure shipped with the pointer; no faults afterwards. *)
val fully_eager : t

(** One callback per first dereference. *)
val fully_lazy : t

val pp : Format.formatter -> t -> unit

(** [budget_allows t ~total ~extra] decides whether shipping [extra] more
    bytes on top of [total] stays within the closure budget. *)
val budget_allows : t -> total:int -> extra:int -> bool
