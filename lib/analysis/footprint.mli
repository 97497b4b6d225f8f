(** Static session-footprint analysis — the interference half of the
    CC-series rules.

    A footprint is a may-read / may-write / may-free set of abstract
    regions, each a (datum root, field path) pair. Two sources feed it:

    - {!of_type} walks a registered type's pointer graph and computes
      every region a traversal rooted at that type may touch. A pointee
      type already on the walk's path is a recursive field: the region
      widens to the whole reachable subgraph ([path.*]) and rule
      [CC003] records the precision loss. Closure-shape hints (the same
      [(type, follow-fields)] view {!Desc_lint} takes) bound the walk
      to the programmer-declared shape.
    - [Srpc_check.Plan_footprint] lowers a resolved check-script plan
      to one footprint per session, with object-granular regions.

    {!interferes} compares two footprints and emits:

    - [CC001] both sessions may write an overlapping region
    - [CC002] one session may write what the other reads
    - [CC004] a footprint escapes through a callback/funref — its
      effects are not analyzable, so interference cannot be bounded
      (warning)
    - [CC005] one session frees a datum inside the other's footprint

    PR 7's concurrent-session admission will consult exactly this
    predicate: two candidate sessions may overlap in time only when
    [interferes] returns no errors. See [docs/RACES.md]. *)

open Srpc_types

type mode = Read | Write | Free

(** An abstract region: [root] names a datum root (a type name for
    {!of_type}, ["obj#N"] for script plans); [path] is a dotted field
    path from it — [""] the root datum itself, a trailing ["*"] the
    whole subgraph below that point. *)
type region = { root : string; path : string; mode : mode }

type t = {
  label : string;  (** e.g. ["session[2]"] or the root type name *)
  regions : region list;  (** sorted, deduplicated *)
  escapes : bool;
      (** a callback/funref crosses the session boundary somewhere in
          this footprint's extent *)
  homes : string list;
      (** spaces owning data in this footprint (script plans; empty for
          type walks) *)
  diags : Diagnostic.t list;
      (** CC003 widenings discovered while computing *)
}

(** Assemble a footprint from explicit regions (the script-plan path). *)
val session :
  label:string -> ?escapes:bool -> ?homes:string list -> region list -> t

(** [of_type reg ~ty ~mode] walks [ty]'s pointer graph. [hints] uses
    {!Desc_lint}'s convention: [(type, follow-field-list)] — a hinted
    type traverses only the listed pointer fields (the declared closure
    shape); unhinted types traverse all pointer fields. [label]
    defaults to [ty].
    @raise Registry.Unknown_type on a dangling descriptor. *)
val of_type :
  Registry.t ->
  ?hints:(string * string list) list ->
  ?label:string ->
  ty:string ->
  mode:mode ->
  unit ->
  t

(** Do two regions denote potentially-overlapping data? Roots must
    match; a wildcard path covers every path below its stem. *)
val regions_overlap : region -> region -> bool

(** Pairwise interference diagnostics (sorted); [[]] means the two
    footprints are disjoint and the sessions could safely overlap. *)
val interferes : t -> t -> Diagnostic.t list

val pp : Format.formatter -> t -> unit
