(** A node: one address space plus its smart-RPC runtime.

    The runtime implements the paper's method end to end:
    - stubs that unswizzle pointer arguments to long pointers and
      swizzle them back into protected cache slots (section 3.2);
    - the MMU fault handler that services the first touch of remote data
      by fetching everything allocated to the faulting page, together
      with a bounded breadth-first closure (sections 3.2–3.3);
    - the coherency protocol that ships the modified data set on every
      control transfer and performs the end-of-session write-back and
      invalidation multicast (section 3.4);
    - transparent remote memory allocation and release with batching
      (section 3.5). *)

open Srpc_memory
open Srpc_types
open Srpc_simnet

type t

(** A remote procedure body. It runs on the callee node with swizzled
    arguments; pointer arguments can be dereferenced through {!Access}
    (or raw loads via [mmu]) exactly like local data. *)
type proc = t -> Value.t list -> Value.t list

exception Remote_error of string
exception Unknown_procedure of string

(** Raised (on non-ground nodes) when a peer stayed unreachable through
    the whole retry envelope or is crashed in the fault plan. On the
    ground thread the runtime instead aborts the session and raises
    {!Session.Session_aborted}. *)
exception Peer_unreachable of string

(** Raised when an address that is neither null, a live heap block base,
    nor a cache slot base is unswizzled or freed. *)
exception Invalid_pointer of int

(** {1 Construction} *)

(** Retry/timeout/backoff envelope for the RPC path, active only while a
    {!Srpc_simnet.Fault_plan} is installed on the transport. A request
    is re-sent up to [max_attempts] total tries; between tries the
    sender backs off exponentially from [base_backoff] (simulated
    seconds), doubling up to [max_backoff]. *)
type retry = { max_attempts : int; base_backoff : float; max_backoff : float }

val default_retry : retry

(** [create ~id ~arch ~registry ~transport ~session ~strategy ()] builds
    a node and registers its dispatcher with the transport. Region sizes
    are configurable for tests ([page_size] must be a power of two).
    With [~validate:true] the registry is first checked by the
    descriptor linter against this node's architecture. Passing
    [?policy] opts the node into adaptive transfer: the engine's
    per-type budgets replace the strategy's static closure budget, the
    runtime feeds it access-pattern observations, and at session end it
    installs machine-derived closure-shape hints into [hints] (share
    one engine and one hint table across the cluster's nodes).
    [?retry] tunes the fault-layer retry envelope (used only when a
    fault plan is installed on the transport). [?reply_cache_cap]
    bounds the per-source at-most-once reply cache (default 64
    sources); the least-recently-consulted source is evicted when the
    bound is exceeded.
    @raise Srpc_analysis.Desc_lint.Invalid_registry if validation finds
    error-severity defects.
    @raise Invalid_argument if [reply_cache_cap < 1]. *)
val create :
  ?page_size:int ->
  ?heap_base:int ->
  ?heap_limit:int ->
  ?cache_limit:int ->
  ?hints:Hints.t ->
  ?policy:Srpc_policy.Engine.t ->
  ?validate:bool ->
  ?retry:retry ->
  ?reply_cache_cap:int ->
  id:Space_id.t ->
  arch:Arch.t ->
  registry:Registry.t ->
  transport:Transport.t ->
  session:Session.t ->
  strategy:Strategy.t ->
  unit ->
  t

val id : t -> Space_id.t
val arch : t -> Arch.t
val space : t -> Address_space.t
val mmu : t -> Mmu.t
val registry : t -> Registry.t
val transport : t -> Transport.t
val strategy : t -> Strategy.t
val cache : t -> Cache.t
val heap : t -> Allocator.t

(** {1 Procedures and sessions} *)

(** [register t name body] installs a remote procedure. *)
val register : t -> string -> proc -> unit

(** [run_local t name args] invokes a locally registered procedure
    directly, without an RPC.
    @raise Unknown_procedure if it is not registered. *)
val run_local : t -> string -> Value.t list -> Value.t list

(** [begin_session t] declares this node's thread the ground thread of a
    new RPC session, an unadmitted one that runs alone (see
    {!Session.begin_session}).
    @raise Session.Session_already_active if any session is open. *)
val begin_session : t -> unit

(** [end_session t] writes the modified data set back to the origin
    spaces and multicasts the invalidation; every participant drops its
    cached data (paper, section 3.4). With
    {!Strategy.t.delta_coherency} the write-backs travel as byte-range
    deltas and only the spaces that received copies are invalidated.
    Must be called by the ground
    node. With a fault plan installed the write-back is all-or-nothing:
    items are staged at every origin and applied only once the full set
    is delivered; a participant dying before that commit point aborts
    the session instead ({!Session.Session_aborted}), leaving every
    original untouched. *)
val end_session : t -> unit

(** [with_session t f] brackets [f] with [begin_session]/[end_session].
    The session is also ended if [f] raises. *)
val with_session : t -> (unit -> 'a) -> 'a

(** {1 Admission}

    A session opened through admission ({!reserve_session}, then
    {!request_admission} or {!start_admitted}) may be open together with
    other admitted sessions: an {!Admission} controller decides which
    may overlap (disjoint static footprints), and the wire-level session
    id on every frame demultiplexes each node's per-session runtime
    state. Sessions interleave at operation granularity — the simulated
    cluster is single-threaded.

    Admitted and unadmitted sessions take one path through the runtime
    and differ in one fact, decided when a node first focuses the
    session: an unadmitted session owns the node. Its cache entries are
    placed, flushed and dropped cache-wide, with one wildcard drop
    mark. An admitted session's entries go on pages of their own and
    are pinned to it, so its flush covers only them and its close drops
    only them, with one drop mark per datum. Either close records the
    prefetch outcomes of its entries. Admission requires
    [Page_grain] write-back and no delta coherency: twin diffs and
    delta shadows are kept per page and per copy, not per session. See
    docs/TRAFFIC.md. *)

(** [reserve_session t] draws a session id without opening it (the
    admission controller names queued sessions before they begin).
    @raise Invalid_argument under [Twin_diff] grain or delta coherency. *)
val reserve_session : t -> int

(** [request_admission t adm ~id ~footprint] asks [adm] whether the
    reserved session may open now. [Admitted]: the session has begun
    (admit and begin marks recorded) and this node is its ground.
    [Queued]: parked; a later close's drain admits it and the caller
    then runs {!start_admitted}. [Denied] (abort-retry policy): back
    off by {!Admission.backoff_delay} and ask again with the same id.
    [Overloaded]: the typed shed (queue full, retry budget exhausted,
    or circuit breaker holding for a dead peer) — a [Session_shed]
    trace mark witnesses the rejection (rule SP009) and the attempt is
    terminal. [?peers] names the endpoints the session will talk to,
    for the controller's circuit breaker. While
    {!chaos_admit_conflicting} is set the conflict check is bypassed
    and every request is admitted. *)
val request_admission :
  ?peers:string list ->
  t ->
  Admission.t ->
  id:int ->
  footprint:Srpc_analysis.Footprint.t ->
  Admission.decision

(** [start_admitted t ~id] begins a session the controller has already
    admitted (from {!Admission.close}'s drain).
    @raise Session.Session_already_active while an unadmitted session
    is open. *)
val start_admitted : t -> id:int -> unit

(** [end_session_validated t adm] closes the focused session with
    optimistic validation: if some datum root it touched was committed
    by another session since admission (possible only when admission
    was bypassed), the close turns into an abort — nothing is committed
    over the foreign write — and [`Validation_failed] is returned; the
    caller retries the session. Either way the controller retires the
    session and the FIFO waiters admitted by its departure are
    returned, to be started with {!start_admitted}. *)
val end_session_validated :
  t ->
  Admission.t ->
  [ `Committed | `Validation_failed ]
  * (int * Srpc_analysis.Footprint.t) list

(** [call t ~dst proc args] performs a smart RPC: flushes batched remote
    allocations, ships the modified data set and (for an unbounded
    closure budget) the eager closure of pointer arguments, then blocks
    until the results return. Nested calls and callbacks are calls
    issued from inside a procedure body.
    @raise Session.No_active_session outside a session
    @raise Remote_error if the callee raised
    @raise Session.Session_aborted (ground thread, fault plan installed)
    if a participant became unreachable and the session was aborted *)
val call : t -> dst:Space_id.t -> string -> Value.t list -> Value.t list

(** [offload t ~root plan] runs a declarative traversal {!Offload.plan}
    rooted at the ordinary (possibly swizzled) address [root] and
    returns its result vector. Where it runs is the strategy's third
    per-call-site mode ({!Strategy.offload_mode}): with
    [Offload_never] — or whenever the root is homed here — the plan is
    interpreted client-side over the cache, faulting data in exactly as
    a hand-written traversal would (wire behavior identical to not
    having the feature); with [Offload_always] a foreign-rooted plan is
    shipped to the root's home in one [Offload_call], the home walks its
    own heap, and only the result vector (plus the coherency refresh for
    data an update plan mutated) comes back; with [Offload_auto] the
    adaptive policy engine's per-root-type learner picks the cheaper arm
    from measured durations ({!Srpc_policy.Engine.choose_offload}; no
    engine installed: foreign roots offload). The caller's modified data
    set ships with the frame, so the walk sees the session's latest
    writes; under a fault plan the retry envelope and the home's reply
    cache make update plans exactly-once.
    @raise Session.No_active_session outside a session
    @raise Srpc_xdr.Xdr.Decode_error if the plan is malformed
    @raise Remote_error if the home rejected the root (foreign, freed) *)
val offload : t -> root:int -> Offload.plan -> int list

(** {1 Memory management} *)

(** [malloc t ~ty] allocates one object of registered type [ty] in this
    node's own heap and returns its address. *)
val malloc : t -> ty:string -> int

(** [malloc_n t ~ty n] allocates an array of [n] contiguous objects and
    returns the base address. *)
val malloc_n : t -> ty:string -> int -> int

(** [extended_malloc t ~home ~ty] allocates an object whose original
    location is address space [home] and returns a swizzled pointer
    valid here (paper, section 3.5). The home-space allocation is
    batched until the next control transfer when the strategy says so. *)
val extended_malloc : t -> home:Space_id.t -> ty:string -> int

(** [extended_free t addr] releases the object referenced by [addr];
    [addr] "may reference data whose original location is not in the
    address space in which it is issued" (paper, section 3.5). *)
val extended_free : t -> int -> unit

(** {1 Pointer plumbing (exposed for the access layer and tests)} *)

val swizzle : t -> Long_pointer.t option -> int
val unswizzle : t -> ty:string -> int -> Long_pointer.t option

(** [charge_touch t] accounts one application-level data access in the
    cost model. When [addr] names the accessed datum, its cache entry
    (if any) is also marked touched, feeding the access-pattern
    profile; with a trace attached the touch is also recorded as a
    datum-granular [Trace.Access] witness — a read by default, a write
    when [~write:true]. *)
val charge_touch : ?addr:int -> ?write:bool -> t -> unit

(** Whether the node's transport currently has a trace attached. The
    access layer uses this to decide when witness bookkeeping (like the
    store-comparison that demotes no-op writes to reads) is worth
    paying for. *)
val traced : t -> bool

(** Number of live entries in the data allocation table. *)
val cached_entries : t -> int

(** Number of sources currently held by the at-most-once reply cache
    (bounded by [reply_cache_cap]; exposed for the eviction tests). *)
val reply_cache_size : t -> int

(** Test-only defect switch used by the srpc-check mutation test: while
    set, every write-back flush silently drops its first dirty cache
    entry (the page is still cleaned, so the lost update is
    unrecoverable). Leave it [false] outside tests. *)
val chaos_lose_first_writeback : bool ref

(** Test-only defect switch used by the srpc-check mutation test: while
    set, an incoming [Invalidate] is acknowledged and the session
    bookkeeping advances, but no cached state is dropped — stale copies
    survive into the next session exactly as if the invalidation had
    been reordered past the accesses it was meant to fence. Leave it
    [false] outside tests. *)
val chaos_reorder_invalidate : bool ref

(** Test-only defect switch used by the traffic mutation tests: while
    set, {!request_admission} bypasses the footprint conflict check and
    admits everything — conflicting sessions run concurrently, which
    Race_lint (CC101), the protocol linter (SP008) and the close-time
    optimistic validation must each catch. Leave it [false] outside
    tests. *)
val chaos_admit_conflicting : bool ref

(** Render this node's data allocation table (paper, Table 1). *)
val pp_alloc_table : Format.formatter -> t -> unit
