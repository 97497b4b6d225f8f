(** Cache area and data allocation table.

    When a long pointer arrives, the runtime "allocates for the
    referenced data a protected page area ... The allocation determines
    the location to which the referenced data will be copied if the
    protected page area must be accessed" (paper, section 3.2). This
    module owns that region: slot placement (per the configurable
    grouping strategy), the data allocation table (page, offset → long
    pointer), the reverse maps used by swizzling, per-entry presence,
    page-grain dirtiness (with optional pristine twins for diff-grain
    write-back), and the protection state machine

    {v no-access (some datum absent)  →  read-only (all present, clean)
       →  read-write (dirty)  →  read-only again after a flush v}

    It performs no I/O: fetching, encoding and coherency live in
    {!Node}. *)

open Srpc_memory

(** An entry lives from the {!allocate} that returns it to the drop
    that removes it ({!invalidate}, or {!invalidate_session} for its
    last pin); a later {!allocate} then reuses the record, every field
    reset. No caller keeps an entry past that drop. Its slot occupies
    the contiguous pages from [local_addr] to [local_addr + size - 1]. *)
type entry = {
  mutable lp : Long_pointer.t;
      (** current home; rebound when a provisional allocation resolves *)
  mutable local_addr : int;  (** swizzled address of the cached copy *)
  mutable size : int;  (** in-memory size on this architecture *)
  mutable present : bool;  (** false until the data transfer *)
  mutable dirty : bool;
  mutable prefetched : bool;
      (** the data transfer was speculative (closure extra), not a
          demand fetch — the access-pattern profile's raw material *)
  mutable touched : bool;  (** the program accessed this datum *)
  mutable version : int;
      (** bumped on every install that rewrites the copy; the shadow is
          usable for delta write-back only while [shadow_version] still
          matches (stale snapshots force the full-item fallback) *)
  mutable shadow : string option;
      (** last canonical encoding known to agree byte-for-byte with the
          home's record of our copy — the delta base image *)
  mutable shadow_version : int;
  mutable pins : int list;
      (** ids of the open admitted sessions that touched this entry (see
          {!set_scope}). Always [[]] while an unadmitted session owns the
          cache. *)
}

type t

(** Raised when the cache region has no room for a new slot. *)
exception Region_full

(** [create ~space ~base ~limit ~grouping ~grain] manages the cache
    region [base, limit) of [space]. *)
val create :
  space:Address_space.t ->
  base:int ->
  limit:int ->
  grouping:Strategy.alloc_grouping ->
  grain:Strategy.writeback_grain ->
  t

val in_region : t -> int -> bool

(** [set_scope t scope] names the session the cache works for. [Some
    sid] is an admitted session, which shares the cache with other open
    sessions: new entries are placed on pages that no other session's
    entries share, because fault handling is page-grained — a fault
    sweeps every absent entry on the page, and a page mixing two
    sessions would cross-contaminate their fetches; entries are pinned
    to [sid] ({!pin}); and the dirty set and flush cover only its pinned
    entries. [None] (the default) is an unadmitted session, which owns
    the whole cache: whole-cache placement, no pins, whole-cache dirty
    set and flush. *)
val set_scope : t -> int option -> unit

val scope : t -> int option

(** [allocate t lp ~size] reserves a slot for [lp] (absent, clean) and
    returns its entry. The slot's pages are mapped and protected.
    @raise Invalid_argument if [lp] is already allocated. *)
val allocate : t -> Long_pointer.t -> size:int -> entry

(** Lookups. [find_by_addr] requires the exact slot base address —
    interior pointers are not valid RPC currency, as in the paper. *)

val find_by_lp : t -> Long_pointer.t -> entry option
val find_by_addr : t -> int -> entry option

(** [find_containing t addr] is the entry whose slot covers [addr] —
    unlike {!find_by_addr} it also resolves interior addresses (array
    elements, field offsets), as needed by touch tracking. *)
val find_containing : t -> int -> entry option
val entries_on_page : t -> int -> entry list
val iter_entries : t -> (entry -> unit) -> unit
val entry_count : t -> int

(** [mark_present t e] records the data transfer for [e] and refreshes
    the protection of its pages. *)
val mark_present : t -> entry -> unit

(** [mark_page_dirty t ~page] services a write fault: snapshots a twin
    when diff-grain is configured, then opens the page for writing.
    All entries on the page are considered modified (page-grain). *)
val mark_page_dirty : t -> page:int -> unit

val dirty_pages : t -> int list

(** [pin t e] records the scope's session as a user of [e]'s copy; a
    no-op under scope [None]. *)
val pin : t -> entry -> unit

(** [iter_scoped t f] applies [f] to the scope's entries: every entry
    under scope [None], else the entries the scope's session pinned. *)
val iter_scoped : t -> (entry -> unit) -> unit

(** [dirty_entries t] is the modified data set to ship at the next
    control transfer, among the scope's entries: with [Page_grain],
    every present entry on a dirty page; with [Twin_diff], only entries
    whose bytes differ from the twin. Under an admitted scope, a
    session's control transfer must not leak another open session's
    modified data. *)
val dirty_entries : t -> entry list

(** [clean_after_flush t] marks the scope's modified data set clean.
    Under scope [None] it also drops twins and restores read-only
    protection. Under an admitted scope only that session's entries are
    cleaned and page dirty bits are left alone (they may witness
    another open session's page-grain dirtiness); the page state fully
    resets when the last session closes. *)
val clean_after_flush : t -> unit

(** Delta-coherency snapshot plumbing (see docs/DELTA.md). *)

(** [bump_version e] records that [e]'s copy was rewritten from the
    wire; any existing shadow becomes stale unless re-synced. *)
val bump_version : entry -> unit

(** [sync_shadow e image] records [image] as the encoding both sides now
    agree on (after installing directly from the home, or after shipping
    a write-back to it). *)
val sync_shadow : entry -> string -> unit

(** [shadow_base e] is the delta base image, or [None] when the shadow
    is missing or stale. *)
val shadow_base : entry -> string option

(** [shadow_image e] is the raw shadow bytes even when stale. Staleness
    means the cache {e encoding} drifted from the shadow, but the bytes
    themselves are still the last encoding agreed with the home — which
    is exactly the base a home-originated refresh delta patches. *)
val shadow_image : entry -> string option

(** [diff_ranges ~base ~now] is the list of changed byte ranges
    [(offset, bytes)] between two equal-length encodings, ascending and
    non-overlapping; nearby changes (gap ≤ 8 bytes) merge into one range
    to amortize per-range framing.
    @raise Invalid_argument on a length mismatch. *)
val diff_ranges : base:string -> now:string -> (int * string) list

(** [rebind t e lp] changes [e]'s home (provisional → real). *)
val rebind : t -> entry -> Long_pointer.t -> unit

(** [remove t e] drops [e] from all tables ([extended_free] of a cached
    datum). The slot joins a size-classed free list and is reused by
    later allocations of the same rounded size. *)
val remove : t -> entry -> unit

(** [invalidate t] drops every entry, twin and page — the session-end
    invalidation. The entries are kept for reuse. *)
val invalidate : t -> unit

(** [invalidate_session t ~session] is the variant for an admitted
    session: entries pinned only by [session] are removed (slots
    recycle), shared entries merely lose the pin, and other open
    sessions' entries are untouched. The removed entries are kept for
    reuse. *)
val invalidate_session : t -> session:int -> unit

(** [refresh_protection t ~page] recomputes the page's protection from
    its entries' state. *)
val refresh_protection : t -> page:int -> unit

(** Bytes of cache slots currently allocated (the working-set measure
    used by the allocation-strategy ablation). *)
val allocated_bytes : t -> int

val used_pages : t -> int

(** Render the data allocation table in the layout of the paper's
    Table 1: page, offset within the page, long pointer. *)
val pp_table : Format.formatter -> t -> unit

(** Structural invariants, for tests: the lookup tables are mutually
    consistent, entries lie inside the region on the pages that index
    them without overlapping, page protection matches entry state, and byte
    accounting adds up. *)
val check_invariants : t -> (unit, string) result
