(** Structured findings shared by the analysis engines, plus the stable
    rule catalogue.

    Rule ids are stable across releases: [TD0xx] rules come from
    {!Desc_lint} (type descriptors), [SP0xx] rules from {!Proto_lint}
    (session protocol), [CC0xx] from {!Footprint} (static session
    interference) and [CC1xx] from {!Race_lint} (dynamic happens-before
    races). See [docs/ANALYSIS.md] and [docs/RACES.md] for the full
    catalogue with examples. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  rule_id : string;  (** stable catalogue id, e.g. ["TD001"] *)
  space : string;
      (** the address space the finding is about, [""] when the finding
          is not tied to one (descriptor rules) *)
  path : string;  (** locus: ["type.field"] or ["event[12]"] *)
  message : string;
}

val make :
  ?space:string -> severity:severity -> rule_id:string -> path:string -> string -> t

val is_error : t -> bool
val count_errors : t list -> int

(** [sort ds] orders by (space, rule id, location) — deterministic across
    runs and OCaml versions; severity only tie-breaks identical loci. *)
val sort : t list -> t list
val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit

(** {1 Rule catalogue} *)

type rule = { id : string; default_severity : severity; title : string }

val find_rule : string -> rule option

(** Render the whole catalogue, one rule per line. *)
val pp_rules : Format.formatter -> unit -> unit

(** Render the catalogue as a GitHub-flavored markdown table — the
    single source for the table in [docs/RULES.md] (see the runtest
    drift check). *)
val pp_rules_markdown : Format.formatter -> unit -> unit
